import json
import math
from unittest import mock

import pytest

from finslerlab import catalog, cli, expr
from finslerlab.manifest import (
    SpecValidationError,
    load_spec,
    measure_from_spec,
    space_from_spec,
    spec_digest,
    validate_spec_data,
)
from finslerlab.randers import InvalidSpaceError


def write_spec(tmp_path, data, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


@pytest.fixture
def flat_const_data():
    return dict(catalog.spec("flat-const"))


class TestLoad:
    def test_catalog_dumps_load(self, tmp_path):
        for name in catalog.NAMES:
            path = write_spec(tmp_path, catalog.spec(name), f"{name}.json")
            data, digest = load_spec(path)
            assert data["dimension"] >= 2
            assert len(digest) == 64
            space_from_spec(data, probe_count=20)

    def test_digest_tracks_content(self, tmp_path, flat_const_data):
        p1 = write_spec(tmp_path, flat_const_data, "a.json")
        _, d1 = load_spec(p1)
        flat_const_data["beta"] = ["0.4", "0"]
        p2 = write_spec(tmp_path, flat_const_data, "b.json")
        _, d2 = load_spec(p2)
        assert d1 != d2
        assert spec_digest(p1.read_bytes()) == d1

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecValidationError, match="JSON"):
            load_spec(path)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_refused(self, tmp_path, token):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(catalog.spec("flat-const")).replace('"flat-const"', token))
        with pytest.raises(SpecValidationError, match=f"the constant {token} is not a number"):
            load_spec(path)

    def test_load_reads_and_probed_space_validates(self, tmp_path, flat_const_data):
        flat_const_data["schema"] = 2
        data, _ = load_spec(write_spec(tmp_path, flat_const_data))
        assert data == flat_const_data
        with pytest.raises(SpecValidationError, match="schema"):
            space_from_spec(data)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_spec(tmp_path / "nope.json")


class TestValidation:
    def test_schema_version(self, flat_const_data):
        flat_const_data["schema"] = 2
        with pytest.raises(SpecValidationError, match="schema"):
            validate_spec_data(flat_const_data)

    def test_missing_field(self, flat_const_data):
        del flat_const_data["metric"]
        with pytest.raises(SpecValidationError, match="metric"):
            validate_spec_data(flat_const_data)

    def test_dimension_floor(self, flat_const_data):
        flat_const_data["dimension"] = 1
        with pytest.raises(SpecValidationError, match="dimension"):
            validate_spec_data(flat_const_data)

    def test_coordinate_count(self, flat_const_data):
        flat_const_data["coordinates"] = ["x1"]
        with pytest.raises(SpecValidationError):
            validate_spec_data(flat_const_data)

    def test_metric_shape(self, flat_const_data):
        flat_const_data["metric"] = [["1", "0"]]
        with pytest.raises(SpecValidationError, match="metric"):
            validate_spec_data(flat_const_data)

    def test_beta_shape(self, flat_const_data):
        flat_const_data["beta"] = ["0"]
        with pytest.raises(SpecValidationError, match="beta"):
            validate_spec_data(flat_const_data)

    def test_domain_interval(self, flat_const_data):
        flat_const_data["domain"] = [[1.0, -1.0], [-1.0, 1.0]]
        with pytest.raises(SpecValidationError, match="domain"):
            validate_spec_data(flat_const_data)

    @pytest.mark.parametrize(
        "interval", [[-math.inf, 1.0], [-1.0, math.inf], [-1e308, 1e308], [math.nan, 1.0]]
    )
    def test_domain_bounds_and_width_finite(self, flat_const_data, interval):
        flat_const_data["domain"] = [interval, [-1.0, 1.0]]
        with pytest.raises(SpecValidationError, match="bad domain interval"):
            validate_spec_data(flat_const_data)

    def test_returns_the_parsed_expressions(self, flat_const_data):
        flat_const_data["beta"] = ["0.1*x2", "0"]
        metric, one_form, density = validate_spec_data(flat_const_data)
        assert [[f.source for f in row] for row in metric] == flat_const_data["metric"]
        assert one_form == [expr.parse(s, ["x1", "x2"]) for s in flat_const_data["beta"]]
        assert density is None
        flat_const_data["measure"] = {"kind": "custom", "density": "2 + x1"}
        assert validate_spec_data(flat_const_data)[2] == expr.parse("2 + x1", ["x1", "x2"])

    @pytest.mark.parametrize("name", [1.5, 10**400, None, ["x", {"y": 1}], {"x": "y"}])
    def test_name_must_be_a_string(self, flat_const_data, name):
        flat_const_data["name"] = name
        with pytest.raises(SpecValidationError, match="name must be a string"):
            validate_spec_data(flat_const_data)

    def test_name_may_be_absent(self, flat_const_data):
        del flat_const_data["name"]
        validate_spec_data(flat_const_data)

    @pytest.mark.parametrize("interval", [[-(10**400), 1], [-1, 10**400], [1.0, 10**400]])
    def test_domain_bound_past_the_float_range(self, flat_const_data, interval):
        flat_const_data["domain"] = [interval, [-1.0, 1.0]]
        with pytest.raises(SpecValidationError, match=r"bad domain interval \["):
            validate_spec_data(flat_const_data)

    def test_bad_expression(self, flat_const_data):
        flat_const_data["beta"] = ["0.5 +", "0"]
        with pytest.raises(SpecValidationError, match="bad expression"):
            validate_spec_data(flat_const_data)

    def test_unknown_variable_in_expression(self, flat_const_data):
        flat_const_data["beta"] = ["0.5*y", "0"]
        with pytest.raises(SpecValidationError):
            validate_spec_data(flat_const_data)

    def test_bad_measure_kind(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "holmes-thompson"}
        with pytest.raises(SpecValidationError, match="measure kind"):
            validate_spec_data(flat_const_data)

    def test_custom_measure_needs_density(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "custom"}
        with pytest.raises(SpecValidationError, match="density"):
            validate_spec_data(flat_const_data)

    def test_space_from_a_dict_is_validated(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "holmes-thompson"}
        with pytest.raises(SpecValidationError, match="measure kind"):
            space_from_spec(flat_const_data)

    def test_asymmetric_metric(self, flat_const_data):
        flat_const_data["metric"] = [["1", "0.5"], ["0.4", "1"]]
        with pytest.raises(InvalidSpaceError, match="asymmetric"):
            space_from_spec(flat_const_data)

    def test_overlong_form_rejected(self, flat_const_data):
        flat_const_data["beta"] = ["1.2", "0"]
        with pytest.raises(InvalidSpaceError, match="length"):
            space_from_spec(flat_const_data)


class TestMeasureSelection:
    def test_default_is_busemann_hausdorff(self, flat_const_data):
        space = space_from_spec(flat_const_data, probe_count=20)
        assert measure_from_spec(space, flat_const_data).kind == "busemann-hausdorff"

    def test_spec_measure_used(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "lebesgue"}
        space = space_from_spec(flat_const_data, probe_count=20)
        assert measure_from_spec(space, flat_const_data).kind == "lebesgue"

    def test_flag_overrides_spec(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "lebesgue"}
        space = space_from_spec(flat_const_data, probe_count=20)
        assert (
            measure_from_spec(space, flat_const_data, "riemannian-volume").kind
            == "riemannian-volume"
        )

    def test_custom_density_evaluates(self, flat_const_data):
        flat_const_data["measure"] = {"kind": "custom", "density": "2 + x1"}
        space = space_from_spec(flat_const_data, probe_count=20)
        measure = measure_from_spec(space, flat_const_data)
        assert measure.density((0.5, 0.0)) == 2.5

    def test_custom_flag_without_spec_density(self, flat_const_data):
        space = space_from_spec(flat_const_data, probe_count=20)
        with pytest.raises(SpecValidationError, match="density"):
            measure_from_spec(space, flat_const_data, "custom")


def _distinct_sources(data) -> int:
    """The number of distinct expression strings in a spec's metric and beta."""
    return len({*(e for row in data["metric"] for e in row), *data["beta"]})


def test_s_curvature_parses_a_custom_density_once(tmp_path, capsys, flat_const_data):
    flat_const_data["measure"] = {"kind": "custom", "density": "2+x1"}
    path = write_spec(tmp_path, flat_const_data)
    argv = ["s-curvature", str(path), "--point=0.1,0.2", "--vector=1,0"]
    with mock.patch.object(expr, "parse", wraps=expr.parse) as parse:
        assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert parse.call_count == _distinct_sources(flat_const_data) + 1


@pytest.mark.parametrize("name", catalog.NAMES)
def test_analyze_parses_each_expression_once(tmp_path, capsys, name):
    data = catalog.spec(name)
    path = write_spec(tmp_path, data)
    with mock.patch.object(expr, "parse", wraps=expr.parse) as parse:
        assert cli.main(["analyze", str(path)]) in (cli.EXIT_OK, cli.EXIT_NO_MEASURE)
    capsys.readouterr()
    assert parse.call_count == _distinct_sources(data)


def _respaced_repeats(data) -> dict:
    """A copy of the spec whose repeated metric and beta entries are
    reworded (a space on each side, one more per repeat), so that no two
    entries share a source text and each is parsed on its own."""
    seen: dict = {}

    def reword(source):
        pad = " " * seen.get(source, 0)
        seen[source] = seen.get(source, 0) + 1
        return f"{pad}{source}{pad}"

    copy = dict(data)
    copy["metric"] = [[reword(e) for e in row] for row in data["metric"]]
    copy["beta"] = [reword(e) for e in data["beta"]]
    return copy


@pytest.mark.parametrize("name", catalog.NAMES)
def test_shared_entries_give_the_report_of_separate_ones(tmp_path, capsys, name):
    data = catalog.spec(name)
    n = data["dimension"]
    assert _distinct_sources(data) < n * n + n  # the spec repeats an entry
    reports = []
    for spec in (data, _respaced_repeats(data)):
        path = write_spec(tmp_path, spec)
        with mock.patch.object(expr, "parse", wraps=expr.parse) as parse:
            code = cli.main(["analyze", str(path)])
        reports.append((code, parse.call_count, json.loads(capsys.readouterr().out)))
    (code, shared_parses, shared), (respaced_code, separate_parses, separate) = reports
    assert (shared_parses, separate_parses) == (_distinct_sources(data), n * n + n)
    for report in (shared, separate):
        report.pop("wall_time_s")
        report.pop("spec_digest")
    assert (code, shared) == (respaced_code, separate)
