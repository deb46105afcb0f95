"""The CLI contract under generated flag values.

Every command on every catalog spec, with flag values drawn to include
non-finite, negative, zero and out-of-chart numbers and out-of-range
seeds, must print strict JSON on stdout (no NaN, no Infinity), return
an exit code the `cli` docstring documents, raise nothing, and print the
same report again on a rerun (wall_time_s excluded).  Command lines that
argparse itself rejects are a JSON UsageError with exit 2 and nothing on
stderr.  The same contract holds for `analyze` and `validate` on specs
drawn from the benchmark's generator (perfbench/specgen.py, imported
as it is): every family at n = 2-4, with seeded coefficients.
"""

import contextlib
import io
import json
import math
import os
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import catalog, cli, expr, linalg, manifest, scurvature

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import specgen  # noqa: E402
from report_digests import NESTED, flat_spec, malformed_specs  # noqa: E402

# "0 success ..., 1 invalid spec ..., 2 usage error, ..." in the cli docstring
DOCUMENTED_EXIT_CODES = {
    int(code)
    for code in re.findall(r"\b(\d) (?:success|invalid|usage|no admissible|runtime)", cli.__doc__)
}
WALL_TIME = re.compile(r'^ *"wall_time_s": .*\n', re.MULTILINE)

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-13, 1e300, -1e300]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 7.0))
COMMANDS = ["analyze", "s-curvature", "geodesic", "validate", "bh"]


def vectors(n):
    """Comma-joined components, special values included, any length up to n + 1."""
    return st.one_of(
        st.lists(numbers, min_size=n, max_size=n),
        st.lists(numbers, min_size=1, max_size=n + 1),
    ).map(lambda cs: ",".join(map(repr, cs)))


def inside(bounds):
    """A point of the open chart box."""
    return st.tuples(*(st.floats(lo, hi, exclude_min=True, exclude_max=True) for lo, hi in bounds)).map(
        lambda cs: ",".join(map(repr, cs))
    )


@st.composite
def invocations(draw):
    """(catalog name, argv after the spec path, FINSLERLAB_SEED or None).

    Half the calls draw every flag from values that run; the other half
    draw each flag from either kind, so most of them hit a usage error.
    """
    name = draw(st.sampled_from(catalog.NAMES))
    spec = catalog.spec(name)
    n = len(spec["coordinates"])
    malformed = draw(st.booleans())

    def pick(runs, fails):
        return draw(fails if malformed and draw(st.booleans()) else runs)

    tolerance = st.sampled_from([1e-9, 1e-8, 1e-6])
    command = draw(st.sampled_from(COMMANDS))
    point = pick(inside(spec["domain"]), vectors(n))
    vector = pick(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n).map(
        lambda cs: ",".join(map(repr, cs))), vectors(n))
    if command == "analyze":
        flags = {
            "--probes": pick(st.integers(0, 4), st.integers(-2, -1)),
            "--tol-killing": pick(tolerance, numbers),
            "--tol-length": pick(tolerance, numbers),
        }
    elif command == "s-curvature":
        flags = {
            "--point": point,
            "--vector": vector,
            "--measure": draw(st.sampled_from(scurvature.MEASURE_KINDS)),
            "--h": pick(st.floats(1e-4, 1e-2), numbers),
            "--steps": pick(st.integers(1, 20), st.integers(-1, 0)),
        }
        for switch in ("--oracle", "--no-richardson"):
            if draw(st.booleans()):
                flags[switch] = None
    elif command == "geodesic":
        flags = {
            "--from": point,
            "--dir": vector,
            "--time": pick(st.floats(-1.0, 1.0), numbers),
            "--steps": pick(st.integers(1, 20), st.integers(-1, 0)),
        }
    elif command == "validate":
        flags = {
            "--probes": pick(st.integers(1, 3), st.integers(-1, 0)),
            "--transport-probes": pick(st.integers(0, 2), st.just(-1)),
            "--mc-samples": pick(st.just(10_000), st.just(9_999)),
            "--tol-s": pick(tolerance, numbers),
        }
    else:
        flags = {"--point": point, "--samples": pick(st.just(10_000), st.just(9_999))}
    seed = pick(st.one_of(st.none(), st.integers(0, 5)), st.sampled_from([-1, 2**64]))
    if seed is not None:
        flags["--seed"] = seed
    env_seed = pick(st.sampled_from([None, "", "5"]), st.sampled_from(["-1", "seven"]))
    # --flag=value keeps argparse from reading a value like -1,0 as a flag
    options = [flag if value is None else f"{flag}={value}" for flag, value in flags.items()]
    return name, [command, *options], env_seed


@st.composite
def generated_invocations(draw):
    """(spec from specgen, argv after the spec path): analyze or validate
    on a drawn family, dimension, expression size and coefficient seed."""
    family = draw(st.sampled_from(specgen.FAMILIES))
    n = draw(st.sampled_from(specgen.DIMENSIONS[family]))
    size = draw(st.sampled_from(specgen.SIZES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    spec = specgen.generate(rng, family, n, size, f"contract-{family}-n{n}-s{size}")
    command = draw(st.sampled_from(["analyze", "validate"]))
    if command == "analyze":
        flags = {"--tol-killing": draw(st.sampled_from([1e-9, 1e-8, 1e-6]))}
        probes = draw(st.sampled_from([None, 0, 1, 4, 20]))
    else:
        flags = {"--transport-probes": draw(st.integers(0, 2)), "--mc-samples": 10_000}
        probes = draw(st.integers(1, 3))
    if probes is not None:
        flags["--probes"] = probes
    seed = draw(st.one_of(st.none(), st.integers(0, 5)))
    if seed is not None:
        flags["--seed"] = seed
    return spec, [command, *(f"{flag}={value}" for flag, value in flags.items())]


def _not_a(kind, text):
    try:
        kind(text)
    except ValueError:
        return True
    return False


@st.composite
def argparse_rejections(draw):
    """(catalog name, argv after the spec path) that argparse itself refuses:
    a value its type cannot convert, a value that looks like a flag, a
    missing required flag, an unknown command, flag or choice."""
    name = draw(st.sampled_from(catalog.NAMES))
    n = len(catalog.spec(name)["coordinates"])
    text = st.text(max_size=8)
    negative = st.lists(st.floats(-3.0, -0.1), min_size=n, max_size=n).map(
        lambda cs: ",".join(map(repr, cs))
    )
    case = draw(st.sampled_from(
        ["int", "float", "flag-like", "missing", "unknown-command", "unknown-flag", "choice"]
    ))
    if case == "int":
        command, flag = draw(st.sampled_from(
            [("analyze", "--probes"), ("validate", "--mc-samples"), ("geodesic", "--steps"),
             ("bh", "--samples"), ("analyze", "--seed")]
        ))
        argv = [command, f"{flag}={draw(text.filter(lambda t: _not_a(int, t)))}"]
    elif case == "float":
        command, flag = draw(st.sampled_from(
            [("analyze", "--tol-killing"), ("validate", "--tol-s"), ("s-curvature", "--h")]
        ))
        argv = [command, f"{flag}={draw(text.filter(lambda t: _not_a(float, t)))}"]
    elif case == "flag-like":  # "-1,0" after a space reads as a flag, not a value
        argv = ["s-curvature", "--point", ",".join(["0.1"] * n), "--vector", draw(negative)]
    elif case == "missing":
        argv = draw(st.sampled_from([
            ["s-curvature", "--point", ",".join(["0.1"] * n)],
            ["geodesic", "--from", ",".join(["0.1"] * n), "--dir", ",".join(["1"] * n)],
            ["bh"],
        ]))
    elif case == "unknown-command":
        argv = [draw(text.filter(lambda t: t not in COMMANDS + ["catalog"] and not t.startswith("-")))]
    elif case == "unknown-flag":  # a prefix of --help would print the help
        letters = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
        argv = [draw(st.sampled_from(COMMANDS)), "--" + draw(letters.filter(lambda t: not "help".startswith(t)))]
    else:
        argv = ["s-curvature", "--point", "0,0", "--vector", "1,0",
                f"--measure={draw(text.filter(lambda t: t not in scurvature.MEASURE_KINDS))}"]
    return name, argv


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def _run(argv, env_seed):
    """(exit code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("FINSLERLAB_SEED", None)
        if env_seed is not None:
            os.environ["FINSLERLAB_SEED"] = env_seed
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # what a helper raises, or argparse
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def spec_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("catalog")
    paths = {}
    for name in catalog.NAMES:
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(catalog.spec(name)))
    return paths


# An oracle step so long that an RK4 stage point of sphere-hopf's geodesic
# makes the spray's inv (PointData's) meet a zero pivot.
SINGULAR_STAGE = ["--point=0.5,0.5,0.5", "--vector=1,0,0", "--oracle", "--h=1e300"]


@settings(max_examples=60, deadline=None)
@given(invocations())
@example(invocation=("sphere-hopf", ["s-curvature", *SINGULAR_STAGE], None))
def test_every_invocation_keeps_the_contract(spec_paths, invocation):
    name, (command, *options), env_seed = invocation
    argv = [command, str(spec_paths[name]), *options]
    code, out, err = _run(argv, env_seed)
    assert code in DOCUMENTED_EXIT_CODES
    json.loads(out, parse_constant=_reject_constant)
    assert "Traceback" not in err
    again_code, again_out, _ = _run(argv, env_seed)
    assert (again_code, WALL_TIME.sub("", again_out)) == (code, WALL_TIME.sub("", out))


@settings(max_examples=40, deadline=None)
@given(generated_invocations())
def test_generated_specs_keep_the_contract(tmp_path_factory, invocation):
    spec, (command, *options) = invocation
    path = tmp_path_factory.mktemp("generated") / f"{spec['name']}.json"
    path.write_bytes(specgen.dump(spec))
    argv = [command, str(path), *options]
    code, out, err = _run(argv, None)
    assert code in DOCUMENTED_EXIT_CODES
    report = json.loads(out, parse_constant=_reject_constant)
    assert "Traceback" not in err
    if command == "analyze" and not any(o.startswith("--probes") for o in options):
        expected = specgen.expectation(spec)
        assert code == (cli.EXIT_OK if expected["admits"] else cli.EXIT_NO_MEASURE)
        assert report["results"]["reason"] == expected["reason"]
    again_code, again_out, _ = _run(argv, None)
    assert (again_code, WALL_TIME.sub("", again_out)) == (code, WALL_TIME.sub("", out))


@settings(max_examples=60, deadline=None)
@given(argparse_rejections())
def test_argparse_rejections_are_json_usage_errors(spec_paths, rejection):
    name, (command, *options) = rejection
    argv = [command, str(spec_paths[name]), *options]
    code, out, err = _run(argv, None)
    assert code == cli.EXIT_USAGE
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["error"]["type"] == "UsageError"
    assert err == ""


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["analyze"], ["--bogus"]])
def test_bad_command_lines_are_json_usage_errors(argv):
    code, out, err = _run(argv, None)
    assert code == cli.EXIT_USAGE
    assert json.loads(out, parse_constant=_reject_constant)["error"]["type"] == "UsageError"
    assert err == ""


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["analyze", "--help"]])
def test_help_and_version_exit_zero(argv):
    code, out, _ = _run(argv, None)
    assert code == 0
    assert out


# Specs that every spec command refuses with exit 1, as the digest proof
# prints them.
MALFORMED = malformed_specs()


def _expected_error(case):
    """(error type, a fragment of the message) for a malformed-spec case."""
    kind, _, detail = case.partition("-")
    if kind == "coordinate":
        return "SpecValidationError", f"name {detail}"
    if kind == "nested":
        return "SpecValidationError", f"nested deeper than {expr.MAX_DEPTH} levels"
    if kind == "constant":
        return "SpecValidationError", "not valid JSON: the constant"
    if kind == "domain":
        return "SpecValidationError", "bad domain interval"
    if kind == "name":
        return "SpecValidationError", "name must be a string"
    if kind == "schema":
        return "SpecValidationError", "unsupported schema"
    if kind == "dimension":
        return "SpecValidationError", f"exceeds the maximum {manifest.MAX_DIMENSION}"
    return "InvalidSpaceError", {"beta": "one-form", "metric": "metric"}[detail] + " not finite at x = ("


SPEC_COMMANDS = {
    "analyze": [],
    "validate": ["--probes=5", "--transport-probes=1", "--mc-samples=10000"],
    "s-curvature": ["--point=0.1,0.2", "--vector=1,0", "--oracle"],
    "geodesic": ["--from=0.1,0.2", "--dir=1,0", "--time=0.1", "--steps=5"],
    "bh": ["--point=0.1,0.2", "--samples=10000"],
}


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_specs_are_json_spec_errors(tmp_path, case, command):
    kind, fragment = _expected_error(case)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(MALFORMED[case]))
    code, out, err = _run([command, str(path), *SPEC_COMMANDS[command]], None)
    assert code == cli.EXIT_INVALID_SPEC
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["type"] == kind and fragment in error["message"]
    assert err == ""


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("case", ["directory", "undecodable-bytes"])
def test_unreadable_spec_files_are_json_spec_errors(tmp_path, case, command):
    """A spec path that cannot be read (here a directory; a file without
    read permission takes the same path) and bytes that no JSON encoding
    decodes (a UTF-16 byte-order mark before an odd byte) exit 1 with a
    JSON error."""
    if case == "directory":
        path, fragment = tmp_path, "cannot read the spec file"
    else:
        path, fragment = tmp_path / "spec.json", "not valid JSON"
        path.write_bytes(b"\xff\xfe{")
    code, out, err = _run([command, str(path), *SPEC_COMMANDS[command]], None)
    assert code == cli.EXIT_INVALID_SPEC
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["type"] == "SpecValidationError" and fragment in error["message"]
    assert err == ""


@pytest.mark.parametrize("n", [2, 4])
def test_bh_at_a_metric_scale_past_the_float_range_is_a_json_spec_error(tmp_path, n):
    # a = 1e300 delta passes every probe check, but the Monte-Carlo unit
    # ball's volume (n = 4) or its square (n = 2) underflows to 0.
    names = [f"x{i + 1}" for i in range(n)]
    spec = {
        "schema": 1, "dimension": n, "coordinates": names,
        "metric": [["1e300" if i == j else "0" for j in range(n)] for i in range(n)],
        "beta": ["0"] * n, "domain": [[0.0, 1.0]] * n,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["bh", str(path), "--point=" + ",".join(["0.5"] * n), "--samples", "10000"]
    code, out, err = _run(argv, None)
    assert code in DOCUMENTED_EXIT_CODES and code == cli.EXIT_INVALID_SPEC
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["type"] == "InvalidSpaceError"
    assert error["message"].startswith("unit-ball volume") and "out of float range" in error["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("h", ["1e50", "1e200", "1e300"])
def test_an_oracle_stage_with_a_singular_metric_is_a_json_warning(spec_paths, h):
    argv = ["s-curvature", str(spec_paths["sphere-hopf"]), *SINGULAR_STAGE[:-1], f"--h={h}"]
    code, out, err = _run(argv, None)
    assert code == cli.EXIT_RUNTIME_WARNING
    report = json.loads(out, parse_constant=_reject_constant)
    assert report["results"]["s_transport"] is None
    assert report["warning"] == {
        "type": "SingularMatrixError", "message": "singular matrix (pivot column 0)"
    }
    assert err == ""


def test_a_singular_metric_in_the_validate_transport_is_a_json_runtime_error(
    spec_paths, monkeypatch
):
    # The batch of trajectories and its per-probe float rerun both meet a
    # zero pivot at an RK4 stage point.
    def singular(*args):
        raise linalg.SingularMatrixError("singular matrix (pivot column 0)")

    monkeypatch.setattr(scurvature, "_trajectory", singular)
    argv = ["validate", str(spec_paths["sphere-hopf"]), "--mc-samples=10000"]
    code, out, err = _run(argv, None)
    assert code == cli.EXIT_RUNTIME_WARNING
    assert json.loads(out, parse_constant=_reject_constant) == {
        "error": {"type": "SingularMatrixError", "message": "singular matrix (pivot column 0)"}
    }
    assert err == ""


@pytest.mark.parametrize("oracle", [[], ["--oracle"]])
def test_a_density_not_positive_at_the_point_is_a_json_spec_error(tmp_path, oracle):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(flat_spec(measure={"kind": "custom", "density": "log(x1)"})))
    argv = ["s-curvature", str(path), "--point=0.5,0.1", "--vector=1,0", *oracle]
    code, out, err = _run(argv, None)
    assert code == cli.EXIT_INVALID_SPEC
    error = json.loads(out, parse_constant=_reject_constant)["error"]
    assert error["type"] == "InvalidSpaceError"
    assert error["message"].startswith(f"measure density {math.log(0.5)!r} is not positive")
    assert err == ""


@pytest.mark.parametrize("command", sorted(SPEC_COMMANDS))
@pytest.mark.parametrize("shape", sorted(NESTED))
def test_expressions_at_the_depth_bound_run(tmp_path, shape, command):
    # every AST walker stays inside the recursion limit under each command's stack
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(flat_spec(beta=[NESTED[shape](expr.MAX_DEPTH), "0"])))
    code, out, err = _run([command, str(path), *SPEC_COMMANDS[command]], None)
    assert code == cli.EXIT_OK
    report = json.loads(out, parse_constant=_reject_constant)
    if command == "analyze":
        assert report["results"]["admits_vanishing_s_measure"]
    assert "Traceback" not in err


@pytest.mark.parametrize("scale,expected", [("1e300", cli.EXIT_RUNTIME_WARNING), ("1e-300", cli.EXIT_OK)])
def test_analyze_at_a_metric_scale_past_the_float_range(tmp_path, scale, expected):
    # a = scale * delta, b = 0 admits.  At 1e300, det a = 1e600 overflows
    # to inf, so each certificate entry sqrt(det a) is inf and the report
    # is a NonFiniteResultError; at 1e-300, det a underflows to 0 and the
    # certificate reads 0.0 at every probe.
    spec = {
        "schema": 1, "dimension": 2, "coordinates": ["x1", "x2"],
        "metric": [[scale, "0"], ["0", scale]], "beta": ["0", "0"], "domain": [[0.0, 1.0]] * 2,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(["analyze", str(path)], None)
    assert code == expected
    report = json.loads(out, parse_constant=_reject_constant)
    if expected == cli.EXIT_OK:
        results = report["results"]
        assert results["reason"] == "satisfied"
        assert results["bh_density_probe_values"] == [0.0] * results["probe_count"]
    else:
        assert report["error"] == {
            "type": "NonFiniteResultError", "message": "the result holds a NaN or infinite value"
        }
    assert err == ""  # no traceback, no warning
