"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import specgen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _all_specs(seed):
    out = []
    for cls in workloads.WORKLOADS.values():
        out.extend(cls(seed, ROOT / ".perfbench" / "unused").make_specs())
    return out


def test_same_seed_gives_byte_identical_specs(tmp_path):
    first = specgen.write_specs(_all_specs(7), tmp_path / "a")
    second = specgen.write_specs(_all_specs(7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(first, second))
    other = [specgen.dump(s) for s in _all_specs(8)]
    assert other != [p.read_bytes() for p in first]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_specs_pass_manifest_validation(seed):
    from finslerlab import manifest

    for cls in workloads.WORKLOADS.values():  # one file per spec name
        names = [s["name"] for s in cls(seed, ROOT / ".perfbench" / "unused").make_specs()]
        assert len(set(names)) == len(names)
    for spec in _all_specs(seed):
        manifest.validate_spec_data(json.loads(specgen.dump(spec)))
        assert specgen.expectation(spec)["reason"] in (
            specgen.REASON_SATISFIED, specgen.REASON_KILLING, specgen.REASON_LENGTH
        )


def _bindings(spaces):
    """Every function-valued attribute of the finslerlab modules, by identity,
    and the compiled-closure tables of `spaces`."""
    import finslerlab.cli  # noqa: F401
    from finslerlab import jets, randers

    state = {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name.split(".")[0] == "finslerlab"
        for attr, value in vars(module).items()
        if callable(value)
    }
    state["Jet.__init__"] = id(jets.Jet.__dict__["__init__"])
    for n, space in enumerate(spaces):
        table = randers._COMPILED[space]
        for r, row in enumerate([table["b"], *table["a"]]):
            state[("compiled", n, r)] = tuple(id(fn) for fn in row)
    return state


def test_tracer_restores_every_binding_on_exit():
    from finslerlab import catalog, cli, randers, scurvature

    space = catalog.space("sphere-hopf")
    F = randers.finsler(space)
    bh = scurvature.busemann_hausdorff_measure(space)
    scurvature.s_curvature(F, bh, (0.1, 0.2, 0.3), (1.0, 0.0, 0.5))  # fills the compile cache
    before = _bindings([space])
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert hasattr(cli.main, "__wrapped__")
            assert hasattr(randers.spray_closed_form, "__wrapped__")
            s = scurvature.s_curvature(F, bh, (0.1, 0.2, 0.3), (1.0, 0.0, 0.5))
            randers.build_space(["x1", "x2"], [[-1, 1], [-1, 1]], [["1", "0"], ["0", "1"]], ["0", "0"])
            raise RuntimeError("leave the block by an exception")
    assert _bindings([space]) == before
    summary = tracer.summary()
    assert summary.calls["scurvature.s_curvature"] == 1
    assert summary.counts["jets.allocs"] > 0 and summary.counts["expr.eval"] > 0
    assert abs(s) < 1e-8
    assert not hasattr(scurvature.s_curvature, "__wrapped__")


def test_self_times_add_up_to_root_spans():
    from finslerlab import catalog, randers

    space = catalog.space("flat-nonkilling")
    with tracing.Tracer() as tracer:
        op = tracer.wrap(lambda: randers.theorem_verdict(space), "bench.op")
        op()
        op()
    summary = tracer.summary()
    roots = [s for s in summary.spans if s[3] < 0]
    assert len(roots) == 2 and all(s[0] == "bench.op" for s in roots)
    assert summary.total_self == pytest.approx(sum(s[2] - s[1] for s in roots), rel=1e-9)
    assert summary.distinct_ratio(tracing.PROBE_GRIDS, outermost=True) == 0.5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.LAYER_METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == [m[0] for m in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
