import collections
import copy
import dataclasses
import enum
import itertools
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslerlab
from finslerlab import catalog, checks, cli, core, manifest, randers, scurvature
from finslerlab.cli import main
from finslerlab.core import probe_points

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NO_MEASURE = 3
EXIT_WARNING = 4


@pytest.fixture
def spec_path(tmp_path):
    def write(name, mutate=None):
        data = copy.deepcopy(catalog.spec(name))
        if mutate:
            mutate(data)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def overflow_past_the_edge(data):
    """A one-form defined on x1 < 0 whose exp(1000*x1) overflows (math
    raises OverflowError) past x1 = 0.71, just outside the chart."""
    data["beta"] = ["0", "0.1/(1 + exp(1000*x1))"]
    data["domain"] = [[-1.0, 0.0], [-1.0, 1.0]]


def metric_past_the_edge(data):
    """alpha^2 = x1 v1^2 + v2^2 turns negative past x1 = 0, just outside
    the chart x1 > 0.1, where math.sqrt raises ValueError."""
    data["metric"] = [["x1", "0"], ["0", "1"]]
    data["domain"] = [[0.1, 1.0], [-1.0, 1.0]]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_admits_exit_zero(self, capsys, spec_path):
        code, report = run_json(capsys, "analyze", spec_path("flat-const"))
        assert code == EXIT_OK
        results = report["results"]
        assert results["admits_vanishing_s_measure"] is True
        assert results["reason"] == "satisfied"
        assert results["berwald"] is True
        assert results["bh_density_probe_values"][0] == pytest.approx(
            0.6495190528383290, abs=1e-12
        )

    def test_rotational_exit_three(self, capsys, spec_path):
        code, report = run_json(capsys, "analyze", spec_path("rotational-killing"))
        assert code == EXIT_NO_MEASURE
        assert report["results"]["reason"] == "length-not-constant"

    def test_nonkilling_reason(self, capsys, spec_path):
        code, report = run_json(capsys, "analyze", spec_path("flat-nonkilling"))
        assert code == EXIT_NO_MEASURE
        assert report["results"]["reason"] == "killing-violated"
        assert report["results"]["killing_defect_sup"] == pytest.approx(0.8, abs=1e-12)

    def test_negative_probes(self, capsys, spec_path):
        code, report = run_json(capsys, "analyze", spec_path("flat-const"), "--probes", "-5")
        assert code == EXIT_USAGE
        assert "--probes" in report["error"]["message"]

    @pytest.mark.parametrize(
        "flag,value",
        [("--tol-killing", "-1"), ("--tol-killing", "nan"), ("--tol-length", "0"),
         ("--tol-length", "inf")],
    )
    def test_bad_tolerances(self, capsys, spec_path, flag, value):
        code, report = run_json(capsys, "analyze", spec_path("flat-nonkilling"), f"{flag}={value}")
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert flag in report["error"]["message"]

    def test_per_probe_rows_are_the_analysis_rows(self, capsys, spec_path, spaces):
        code, report = run_json(capsys, "analyze", spec_path("sphere-hopf"), "--probes", "12")
        assert code == EXIT_OK
        space = spaces["sphere-hopf"]
        analysis = randers.validate_space(space, probe_points(space.chart, 12, 0))
        rows = report["results"]["per_probe"]
        assert [row["x"] for row in rows] == [list(x) for x in analysis.probes]
        assert [row["beta_length"] for row in rows] == analysis.lengths
        assert [row["killing_defect"] for row in rows] == analysis.killing_defects
        assert [row["parallel_defect"] for row in rows] == analysis.parallel_defects

    def test_zero_probes_reads_the_corners(self, capsys, spec_path):
        code, report = run_json(capsys, "analyze", spec_path("flat-const"), "--probes", "0")
        assert code == EXIT_OK
        assert report["results"]["probe_count"] == 4

    def test_asymmetric_metric_exit_one(self, capsys, spec_path):
        def mutate(data):
            data["metric"] = [["1", "0.5"], ["0.4", "1"]]

        code, report = run_json(capsys, "analyze", spec_path("flat-const", mutate))
        assert code == EXIT_INVALID
        assert "asymmetric" in report["error"]["message"]

    def test_sphere_admits_not_berwald(self, capsys, spec_path):
        code, report = run_json(
            capsys, "analyze", spec_path("sphere-hopf"), "--probes", "30"
        )
        assert code == EXIT_OK
        assert report["results"]["berwald"] is False

    def test_deterministic_reports(self, capsys, spec_path):
        path = spec_path("flat-const")
        _, first = run_json(capsys, "analyze", path, "--seed", "5")
        _, second = run_json(capsys, "analyze", path, "--seed", "5")
        first.pop("wall_time_s")
        second.pop("wall_time_s")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_env_seed_matches_flag(self, capsys, spec_path, monkeypatch):
        path = spec_path("flat-const")
        monkeypatch.setenv("FINSLERLAB_SEED", "17")
        _, env_report = run_json(capsys, "analyze", path)
        monkeypatch.delenv("FINSLERLAB_SEED")
        _, flag_report = run_json(capsys, "analyze", path, "--seed", "17")
        env_report.pop("wall_time_s")
        flag_report.pop("wall_time_s")
        assert env_report == flag_report
        assert env_report["seed"] == 17

    def test_flag_beats_env(self, capsys, spec_path, monkeypatch):
        monkeypatch.setenv("FINSLERLAB_SEED", "17")
        _, report = run_json(capsys, "analyze", spec_path("flat-const"), "--seed", "3")
        assert report["seed"] == 3


class TestSCurvature:
    def test_anchor_value(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("flat-nonkilling"),
            "--point", "0.5,0",
            "--vector", "1,0",
            "--oracle",
        )
        assert code == EXIT_OK
        results = report["results"]
        assert results["s_formula"] == pytest.approx(0.75, abs=1e-12)
        assert results["s_transport"] == pytest.approx(0.75, abs=1e-5)
        assert results["measure"] == "busemann-hausdorff"

    @pytest.mark.parametrize(
        "flags,integrated,same_as",
        [([], 4, ["--steps", "4"]), (["--no-richardson"], 3, ["--steps", "3", "--no-richardson"])],
    )
    def test_odd_steps_report_the_count_integrated(
        self, capsys, spec_path, flags, integrated, same_as
    ):
        # Richardson reads each path at its midpoint, so it rounds 3 up to 4;
        # without it the oracle runs the 3 steps it was given.
        argv = ["s-curvature", spec_path("flat-nonkilling"), "--point", "0.5,0", "--vector", "1,0",
                "--oracle"]
        code, report = run_json(capsys, *argv, "--steps", "3", *flags)
        assert code == EXIT_OK
        assert report["results"]["oracle"]["steps"] == integrated
        value = report["results"]["s_transport"]
        assert value == pytest.approx(0.75, abs=1e-5)
        _, even = run_json(capsys, *argv, "--steps", "4", *flags)
        assert (value == even["results"]["s_transport"]) == (integrated == 4)
        _, default = run_json(capsys, *argv)
        assert default["results"]["oracle"]["steps"] == scurvature.TRANSPORT_STEPS

    def test_riemannian_volume_zero(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("euclidean2"),
            "--point", "0.2,0.1",
            "--vector", "0.3,-0.9",
            "--measure", "riemannian-volume",
        )
        assert code == EXIT_OK
        assert abs(report["results"]["s_formula"]) <= 1e-9

    def test_zero_vector_short_circuit(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("flat-const"),
            "--point", "0,0",
            "--vector", "0,0",
        )
        assert code == EXIT_OK
        assert report["results"]["s_formula"] == 0.0

    def test_wrong_vector_dimension(self, capsys, spec_path):
        with pytest.raises(SystemExit) as err:
            main(
                [
                    "s-curvature",
                    spec_path("flat-const"),
                    "--point", "0,0",
                    "--vector", "1,0,0",
                ]
            )
        assert err.value.code == EXIT_USAGE

    def test_point_outside_domain(self, capsys, spec_path):
        code = main(
            [
                "s-curvature",
                spec_path("flat-const"),
                "--point", "5,0",
                "--vector", "1,0",
            ]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag,value",
        [("--h", "0"), ("--h", "-1e-3"), ("--h", "inf"), ("--h", "nan"),
         ("--steps", "0"), ("--steps", "-3")],
    )
    def test_bad_oracle_flags(self, capsys, spec_path, flag, value):
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("flat-const"),
            "--point", "0,0",
            "--vector", "1,0",
            "--oracle",
            f"{flag}={value}",
        )
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert flag in report["error"]["message"]

    def test_oracle_blow_up_is_a_warning(self, capsys, spec_path):
        def mutate(data):
            data["beta"] = ["0.99", "0"]

        # F(-1, 0) = 0.01, so the unit start is (-100, 0) and the first
        # step of length 5e307 overflows.
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("flat-const", mutate),
            "--point", "0,0",
            "--vector=-1,0",
            "--oracle",
            "--h", "1e308",
            "--steps", "2",
        )
        assert code == EXIT_WARNING
        assert report["results"]["s_transport"] is None
        assert report["warning"]["type"] == "NonFiniteStateError"
        assert report["warning"]["exit_time"] == 5e307

    def test_oracle_outside_an_expression_domain_is_a_warning(self, capsys, spec_path):
        def mutate(data):
            data["metric"] = [["1 + sqrt(x1)", "0"], ["0", "1 + sqrt(x1)"]]
            data["domain"] = [[0.0, 1.0], [-1.0, 1.0]]

        # The formula at x1 = 0.0008 is fine; an RK4 stage point of the
        # backward geodesic steps to x1 < 0, where sqrt(x1) is undefined.
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("euclidean2", mutate),
            "--point", "0.0008,0",
            "--vector=-1,0",
            "--oracle",
        )
        assert code == EXIT_WARNING
        assert report["warning"]["type"] == "ExprDomainError"
        assert report["results"]["s_transport"] is None
        assert report["results"]["s_formula"] is not None

    def test_oracle_overflow_is_a_warning(self, capsys, spec_path):
        mutate = overflow_past_the_edge
        # The formula at x1 = -0.01 is fine; an RK4 stage point of the
        # forward geodesic reaches x1 ~ 1, where exp(1000*x1) overflows.
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("euclidean2", mutate),
            "--point=-0.01,0",
            "--vector", "1,0",
            "--oracle",
            "--h", "2",
            "--steps", "2",
        )
        assert code == EXIT_WARNING
        assert report["warning"] == {"type": "OverflowError", "message": "math range error"}
        assert report["results"]["s_transport"] is None
        assert report["results"]["s_formula"] is not None

    def test_oracle_math_domain_error_is_a_warning(self, capsys, spec_path):
        # An RK4 stage point of the backward geodesic reaches x1 < 0.
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("euclidean2", metric_past_the_edge),
            "--point", "0.15,0",
            "--vector=-1,0",
            "--oracle",
            "--h", "1",
            "--steps", "2",
        )
        assert code == EXIT_WARNING
        assert report["warning"] == {"type": "ValueError", "message": "math domain error"}
        assert report["results"]["s_transport"] is None
        assert report["results"]["s_formula"] is not None

    def test_custom_measure_from_spec(self, capsys, spec_path):
        def mutate(data):
            data["measure"] = {"kind": "custom", "density": "exp(x1)"}

        # sigma = exp(x1) on euclidean2: S = -v1 exactly
        code, report = run_json(
            capsys,
            "s-curvature",
            spec_path("euclidean2", mutate),
            "--point", "0.1,0.2",
            "--vector", "0.7,0.4",
        )
        assert code == EXIT_OK
        assert report["results"]["measure"] == "custom"
        assert report["results"]["s_formula"] == pytest.approx(-0.7, abs=1e-12)


class TestGeodesic:
    def test_straight_line_csv(self, capsys, spec_path):
        code, out = run(
            capsys,
            "geodesic",
            spec_path("flat-const"),
            "--from", "0,0",
            "--dir", "1,0",
            "--time", "0.5",
            "--steps", "5",
            "--csv",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1,x2,v1,v2,F"
        assert len(lines) == 7
        for line in lines[1:]:
            assert line.split(",")[5] == "1.5"

    def test_json_output_conserves_speed(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "geodesic",
            spec_path("polar-riemannian"),
            "--from", "1.2,3.0",
            "--dir", "0.3,0.25",
            "--time", "1",
            "--steps", "200",
        )
        assert code == EXIT_OK
        speeds = report["results"]["speeds"]
        assert max(abs(s - speeds[0]) for s in speeds) <= 1e-8
        assert report["results"]["status"] == "complete"

    def test_domain_exit_truncates_with_code_four(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "geodesic",
            spec_path("flat-const"),
            "--from", "0.9,0",
            "--dir", "1,0",
            "--time", "1",
            "--steps", "50",
        )
        assert code == EXIT_WARNING
        assert report["results"]["status"] == "domain-exit"
        assert report["warning"]["exit_time"] <= 0.14
        assert len(report["results"]["times"]) < 51

    def test_stage_overflow_exit_four(self, capsys, spec_path):
        # The k2 stage point of the one step sits at x1 ~ 0.99.
        code, report = run_json(
            capsys,
            "geodesic",
            spec_path("euclidean2", overflow_past_the_edge),
            "--from=-0.01,0",
            "--dir", "1,0",
            "--time", "2",
            "--steps", "1",
        )
        assert code == EXIT_WARNING
        assert report == {"error": {"type": "OverflowError", "message": "math range error"}}

    def test_stage_math_domain_error_exit_four(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "geodesic",
            spec_path("euclidean2", metric_past_the_edge),
            "--from", "0.15,0",
            "--dir=-1,0",
            "--time", "1",
            "--steps", "2",
        )
        assert code == EXIT_WARNING
        assert report == {"error": {"type": "ValueError", "message": "math domain error"}}

    def test_stage_singular_metric_exit_four(self, capsys, spec_path):
        # The k2 stage point of the one step sits near x3 = 5e299, where
        # sphere-hopf's metric rounds to the zero matrix.
        code, report = run_json(
            capsys,
            "geodesic",
            spec_path("sphere-hopf"),
            "--from=0,0,0",
            "--dir=0,0,1e300",
            "--time", "1",
            "--steps", "1",
        )
        assert code == EXIT_WARNING
        assert report == {
            "error": {"type": "SingularMatrixError", "message": "singular matrix (pivot column 0)"}
        }

    def test_start_outside_domain(self, capsys, spec_path):
        # polar-riemannian's chart is x1 > 0; the run used to start anyway
        code, report = run_json(
            capsys,
            "geodesic", spec_path("polar-riemannian"),
            "--from=-1,0", "--dir", "1,0", "--time", "0.1",
        )
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert "outside the chart domain" in report["error"]["message"]

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_bad_time(self, capsys, spec_path, value):
        code, report = run_json(
            capsys,
            "geodesic", spec_path("flat-const"),
            "--from", "0,0", "--dir", "1,0", f"--time={value}",
        )
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert "--time" in report["error"]["message"]

    def test_bad_steps(self, capsys, spec_path):
        code = main(
            [
                "geodesic", spec_path("flat-const"),
                "--from", "0,0", "--dir", "1,0", "--time", "1", "--steps", "0",
            ]
        )
        assert code == EXIT_USAGE


class TestValidate:
    def test_catalog_space_passes(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "validate",
            spec_path("flat-const"),
            "--probes", "10",
            "--transport-probes", "3",
            "--mc-samples", "20000",
        )
        assert code == EXIT_OK
        assert report["results"]["all_pass"] is True
        names = [c["name"] for c in report["results"]["checks"]]
        assert "s-formula-vs-transport" in names
        assert "theorem-end-to-end" in names

    def test_zero_transport_probes_skip_the_comparison(self, capsys, spec_path):
        code = main(
            [
                "validate", spec_path("flat-const"), "--probes", "10",
                "--transport-probes", "0", "--mc-samples", "20000",
            ]
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == EXIT_OK
        assert report["results"]["all_pass"] is True
        (check,) = [c for c in report["results"]["checks"] if c["name"] == "s-formula-vs-transport"]
        assert check["skipped"] is True
        assert check["note"] == "no transport probes compared"
        assert "SKIP s-formula-vs-transport" in captured.err

    @pytest.mark.parametrize("name", ["flat-nonkilling", "rotational-killing"])
    def test_refused_witness_replays_with_s_curvature(self, capsys, spec_path, name):
        # The refused theorem-end-to-end entry names the pair of its max
        # |S(v) + S(-v)|; s-curvature there at v and at -v sums to it, under
        # any measure (here the default, Busemann-Hausdorff, and Lebesgue).
        path = spec_path(name)
        code, report = run_json(
            capsys, "validate", path, "--probes", "25", "--transport-probes", "0",
            "--mc-samples", "10000",
        )
        assert code == EXIT_OK
        (entry,) = [c for c in report["results"]["checks"] if c["name"] == "theorem-end-to-end"]
        point, vector = re.search(r"--point=(\S+) --vector=(\S+)$", entry["note"]).groups()
        negated = ",".join(repr(-float(c)) for c in vector.split(","))
        for measure in ([], ["--measure", "lebesgue"]):
            total = 0.0
            for v in (vector, negated):
                code, s_report = run_json(
                    capsys, "s-curvature", path, f"--point={point}", f"--vector={v}", *measure
                )
                assert code == EXIT_OK
                total += s_report["results"]["s_formula"]
            assert abs(abs(total) - entry["observed"]) <= 1e-12 * (1.0 + entry["observed"])

    def test_transport_leaving_the_chart_exit_four(self, capsys, spec_path):
        # flat-const has constant a and b, so each transport geodesic is the
        # straight line x + t v / F(v) to t = +-h (h = 1e-3), in steps of
        # h / TRANSPORT_STEPS.  The probes run in order, each forward and then
        # backward; the first path that leaves the box is reported at the
        # first step end past its edge, here one before the path's end.
        edge = 0.01

        def mutate(data):
            data["domain"] = [[-edge, edge], [-edge, edge]]

        path = spec_path("flat-const", mutate)
        code, report = run_json(capsys, "validate", path, "--seed", "0")
        assert code == EXIT_WARNING
        assert report["error"]["type"] == "DomainExitError"
        assert "left the chart" in report["error"]["message"]
        h, steps = 1e-3, scurvature.TRANSPORT_STEPS
        space, pairs, _, _ = manifest.probed_space(json.loads(Path(path).read_text()), 100, 0)
        F = randers.finsler(space)
        exits = (
            [s for s in (k * (t / steps) for k in range(1, steps + 1))
             if any(abs(c + s * u) >= edge for c, u in zip(x, unit))]
            for x, v in pairs[:50]
            for unit in [[c / F(x, v) for c in v]]
            for t in (h, -h)
        )
        first = next(times[0] for times in exits if times)
        assert 0.0 < abs(first) < h
        assert report["error"]["time"] == pytest.approx(first, abs=1e-12)

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_transport_math_domain_error_exit_four(self, capsys, spec_path, seed):
        # alpha^2 = x1 v1^2 + v2^2 turns negative past x1 = 0, and the chart's
        # edge sits at x1 = 1e-4: near it a unit-speed path crosses far more
        # than that in one RK4 step of h / TRANSPORT_STEPS = 5e-4.  Taken in
        # order, the probes' paths stay in the chart until one evaluates the
        # spray at a stage point with x1 < 0, where math.sqrt raises, before
        # any path has a step end outside the chart.
        def mutate(data):
            metric_past_the_edge(data)
            data["domain"] = [[1e-4, 1e-2], [-1.0, 1.0]]

        path = spec_path("euclidean2", mutate)
        code, report = run_json(
            capsys, "validate", path, "--mc-samples", "10000", "--seed", seed,
        )
        assert code == EXIT_WARNING
        assert report == {"error": {"type": "ValueError", "message": "math domain error"}}
        # The float replay the failed lane batch hands back to, one probe at
        # a time, with the spray's stage points recorded.
        space, pairs, _, _ = manifest.probed_space(
            json.loads(Path(path).read_text()), 100, int(seed)
        )
        F = randers.finsler(space)
        stages = []

        def recorded_spray(x, v):
            stages.append(x[0])
            return F.fast_spray(x, v)

        traced = dataclasses.replace(F, fast_spray=recorded_spray)
        bh = scurvature.busemann_hausdorff_measure(space)
        for x, v in pairs[:50]:
            stages.clear()
            try:
                scurvature.s_curvature_transport(traced, bh, x, v)
            except ValueError as exc:  # DomainExitError is a ValueError too
                raised = exc
                break
        assert (type(raised), str(raised)) == (ValueError, "math domain error")
        assert stages[-1] < 0.0 < min(stages[:-1])

    def test_value_error_outside_the_oracle_is_not_a_warning(self, capsys, spec_path, monkeypatch):
        # Only math at a transport stage point is a runtime domain warning.
        def fail(*args):
            raise ValueError("not from the oracle")

        monkeypatch.setattr(checks, "fundamental_tensor", fail)
        with pytest.raises(ValueError, match="not from the oracle"):
            main(["validate", spec_path("flat-const"), "--probes", "5", "--mc-samples", "10000"])

    @pytest.mark.parametrize(
        "flag,value",
        [("--mc-samples", "5"), ("--transport-probes", "-1"), ("--probes", "-5"),
         ("--probes", "0"), ("--tol-killing", "-1"), ("--tol-killing", "nan"),
         ("--tol-length", "0"), ("--tol-length", "inf"), ("--tol-s", "-1e-8"),
         ("--tol-s", "nan")],
    )
    def test_bad_flags(self, capsys, spec_path, flag, value):
        code, report = run_json(capsys, "validate", spec_path("flat-const"), f"{flag}={value}")
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert flag in report["error"]["message"]

    def test_invalid_space_exit_one(self, capsys, spec_path):
        def mutate(data):
            data["beta"] = ["1.2", "0"]

        code, report = run_json(capsys, "validate", spec_path("flat-const", mutate))
        assert code == EXIT_INVALID
        assert "length" in report["error"]["message"]


class TestBh:
    def test_flat_const_agreement(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "bh",
            spec_path("flat-const"),
            "--point", "0,0",
            "--samples", "100000",
            "--seed", "20240",
        )
        assert code == EXIT_OK
        results = report["results"]
        assert results["closed_form"] == pytest.approx(0.649519052838329, abs=1e-12)
        assert results["agree"] is True

    def test_euclidean_unit_density(self, capsys, spec_path):
        code, report = run_json(
            capsys,
            "bh",
            spec_path("euclidean2"),
            "--point", "0,0",
            "--samples", "100000",
            "--seed", "7",
        )
        assert code == EXIT_OK
        results = report["results"]
        assert results["closed_form"] == 1.0
        assert abs(results["monte_carlo"] - 1.0) <= 3.0 * results["std_error"]

    @pytest.mark.parametrize(
        "name,point", [("polar-riemannian", "-1,0"), ("flat-nonkilling", "5,0")]
    )
    def test_point_outside_domain(self, capsys, spec_path, name, point):
        # a usage error, not a density (polar) or an invalid spec (flat-nonkilling)
        code, report = run_json(capsys, "bh", spec_path(name), f"--point={point}")
        assert code == EXIT_USAGE
        assert report["error"]["type"] == "UsageError"
        assert "outside the chart domain" in report["error"]["message"]

    def test_sample_floor(self, capsys, spec_path):
        code, report = run_json(
            capsys, "bh", spec_path("flat-const"), "--point", "0,0", "--samples", "1000"
        )
        assert code == EXIT_USAGE
        assert "10000" in report["error"]["message"]


class TestCatalog:
    def test_list(self, capsys):
        code, report = run_json(capsys, "catalog")
        assert code == EXIT_OK
        names = {entry["name"] for entry in report["spaces"]}
        assert names == set(catalog.NAMES)
        assert len(names) == 6

    def test_dump_round_trips(self, capsys):
        code, report = run_json(capsys, "catalog", "flat-const")
        assert code == EXIT_OK
        assert report["metric"] == [["1", "0"], ["0", "1"]]
        assert report["beta"] == ["0.5", "0"]

    def test_unknown_name(self, capsys):
        code, report = run_json(capsys, "catalog", "bogus")
        assert code == EXIT_USAGE


class TestProcess:
    def test_no_scipy_at_import(self, spec_path):
        script = textwrap.dedent(
            f"""
            import contextlib, io, sys
            from finslerlab import cli
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["analyze", {spec_path("flat-const")!r}])
            print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
            """
        )
        src = str(Path(finslerlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.stdout.strip() == f"{EXIT_OK} []", result.stderr

    def test_no_concurrent_futures_at_import(self):
        # the Monte-Carlo helper thread is a plain threading.Thread
        script = "import sys, finslerlab.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(finslerlab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.stdout.strip() == "False", result.stderr

    @pytest.mark.parametrize("name", ["flat-const", "sphere-hopf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze"],
            ["validate", "--probes", "10", "--transport-probes", "2", "--mc-samples", "10000"],
        ],
    )
    def test_one_probe_grid_per_command(self, capsys, monkeypatch, spec_path, name, argv):
        """A cold process builds one unit grid per command; the same
        command again builds none and prints the same report."""
        builds = []
        halton = core._scrambled_halton

        def counting_halton(*args):
            builds.append(args)
            return halton(*args)

        monkeypatch.setattr(core, "_scrambled_halton", counting_halton)
        core._unit_grid.cache_clear()
        command, *flags = argv
        cold = run(capsys, command, spec_path(name), *flags)
        assert len(builds) == 1
        warm = run(capsys, command, spec_path(name), *flags)
        assert len(builds) == 1
        wall_time = TestRepeatedCalls.WALL_TIME
        assert warm[0] == cold[0] and wall_time.sub("", warm[1]) == wall_time.sub("", cold[1])

    @pytest.mark.parametrize("name,code", [("sphere-hopf", EXIT_OK), ("flat-nonkilling", EXIT_NO_MEASURE)])
    def test_analyze_evaluates_a_and_b_in_one_pass(self, capsys, monkeypatch, spec_path, name, code):
        """The checks, the beta rows and the certificate of an admitting
        space, or the rows of a refused one, come from one evaluation of
        a and b over the probe grid."""
        calls = []
        a_and_b = randers.a_and_b

        def counting_a_and_b(space, x):
            calls.append(x)
            return a_and_b(space, x)

        monkeypatch.setattr(randers, "a_and_b", counting_a_and_b)
        assert run(capsys, "analyze", spec_path(name))[0] == code
        assert len(calls) == 1


class TestRepeatedCalls:
    """cli.main called again and again in one process (as the benchmark
    and the test suite call it) builds its parser once and answers every
    call as a fresh process would."""

    WALL_TIME = re.compile(r'"wall_time_s": [^,\n]*')

    def outputs(self, capsys, calls):
        results = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's --help and --version, a usage exit
                code = exc.code
            captured = capsys.readouterr()
            results.append((code, self.WALL_TIME.sub("", captured.out), captured.err))
        return results

    def test_parser_is_built_once(self, capsys, spec_path):
        cli._build_parser.cache_clear()
        path = spec_path("flat-const")
        self.outputs(capsys, [["analyze", path], ["analyze", path, "--probes", "x"], ["catalog"]])
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_usage_error_then_valid_call(self, capsys, spec_path):
        path = spec_path("flat-const")
        bad, good = ["analyze", path, "--probes", "ten"], ["analyze", path, "--probes", "7"]
        first_bad, first_good, second_bad, second_good = self.outputs(
            capsys, [bad, good, bad, good]
        )
        assert first_bad == second_bad
        assert first_bad[0] == EXIT_USAGE and json.loads(first_bad[1])["error"]["type"] == "UsageError"
        assert first_good == second_good and first_good[0] == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "SPEC"],
            ["validate", "SPEC", "--probes", "5", "--transport-probes", "1", "--mc-samples", "10000"],
            ["bogus-command"],
            ["analyze"],
            ["--help"],
            ["analyze", "--help"],
            ["--version"],
        ],
    )
    def test_identical_calls_give_identical_output(self, capsys, spec_path, argv):
        path = spec_path("sphere-hopf")
        argv = [path if arg == "SPEC" else arg for arg in argv]
        first, second = self.outputs(capsys, [argv, argv])
        assert first == second


def _finite_floats():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1]),
    )


SCALARS = st.one_of(
    _finite_floats(),
    st.integers(),
    st.sampled_from([10**30, -(2**64), 2**63 - 1]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9 \u2713 \U0001f600", '"\\/\b\f\n\r\t']),
    st.sampled_from([[], (), {}]),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=4),
        st.lists(children, min_size=1, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, min_size=1, max_size=4),
    ),
    max_leaves=25,
)


@st.composite
def trees_holding_a_non_finite_float(draw):
    """A NaN or infinity at a drawn depth, among drawn siblings."""
    value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(TREES, max_size=2))
        kind = draw(st.sampled_from(["list", "tuple", "dict"]))
        if kind == "dict":
            keys = draw(st.lists(st.text(max_size=3), min_size=len(siblings) + 1,
                                 max_size=len(siblings) + 1, unique=True))
            value = dict(zip(keys, [*siblings, value]))
        else:
            siblings.insert(draw(st.integers(0, len(siblings))), value)
            value = siblings if kind == "list" else tuple(siblings)
    return value


class TestReportEncoder:
    """_emit writes exactly what json.dumps(report, sort_keys=True,
    indent=2, allow_nan=False) writes, and NonFiniteResultError where
    json.dumps raises ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(TREES)
    def test_text_equals_json_dumps(self, value):
        assert cli._json_text(value, "\n") == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)

    @settings(max_examples=100, deadline=None)
    @given(trees_holding_a_non_finite_float())
    def test_non_finite_float_at_any_depth_is_an_error(self, value):
        with pytest.raises(ValueError):
            json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(cli.NonFiniteResultError):
            cli._emit(value)

    @staticmethod
    def assert_as_json_dumps(value):
        assert cli._json_text(value, "\n") == json.dumps(value, sort_keys=True, indent=2, allow_nan=False)

    def test_float_subclasses_write_as_floats(self):
        self.assert_as_json_dumps({"x": [np.float64(0.1), np.float64(-0.0)], "n": np.float64(3.0)})

    def test_dict_subclasses_write_as_dicts(self):
        ordered = collections.OrderedDict([("b", 1.5), ("a", [1, 2]), ("c", "x")])
        default = collections.defaultdict(list, {"z": [0.25], "y": {"k": None}})
        self.assert_as_json_dumps({"o": ordered, "d": default, "rows": [ordered, dict(ordered)]})
        assert list(default) == ["z", "y"]  # writing inserts no key

    def test_str_subclass_keys_and_values(self):
        class Name(str):
            pass

        self.assert_as_json_dumps(
            {Name("b\u00e9"): Name("v\n"), "a": [Name("x"), "y"], Name("c"): {Name("k"): Name("")}}
        )
        # one key set, once with str subclass keys and once with str keys
        self.assert_as_json_dumps([{Name("q"): 1.0, "p": 2.0}, {"p": 3.0, "q": Name("4")}])

    def test_int_enum_and_numpy_floats_inside_lists(self):
        class Level(enum.IntEnum):
            LOW = 1
            HIGH = 2

        self.assert_as_json_dumps(
            [Level.HIGH, np.float64(0.1), [np.float64(-2.5e-300), Level.LOW], {"l": [Level.LOW]}]
        )

    def test_rows_sharing_a_key_set_in_any_insertion_order(self):
        """The per_probe shape: many dicts with one key set, here inserted
        in every order of the four keys, beside dicts with other key sets."""
        keys = ["x", "beta_length", "killing_defect", "parallel_defect"]
        orders = list(itertools.permutations(keys))
        rows = []
        for i in range(120):
            values = {"x": [0.1 * i, -1.0 / (i + 1)], "beta_length": i / 7,
                      "killing_defect": 1e-17 * i, "parallel_defect": str(i)}
            rows.append({key: values[key] for key in orders[i % len(orders)]})
        value = {"per_probe": rows, "other": [{"x": 1.0}, {"x": [1.0], "y": 2.0}, [rows[3]]]}
        self.assert_as_json_dumps(value)

    @pytest.mark.parametrize("index", [0, 57, 119])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_in_a_shared_key_row_is_an_error(self, index, bad):
        rows = [{"x": [float(i)], "length": i / 3} for i in range(120)]
        rows[index]["length" if index % 2 else "x"] = bad if index % 2 else [0.5, bad]
        with pytest.raises(ValueError):
            json.dumps(rows, sort_keys=True, indent=2, allow_nan=False)
        with pytest.raises(cli.NonFiniteResultError):
            cli._emit({"per_probe": rows})
