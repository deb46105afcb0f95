"""Spans and counters around finslerlab's public functions, from outside.

Inside `with Tracer() as tracer:` every traced function is rebound, in
each finslerlab module that holds it, to a wrapper that records a span
(name, start, end, parent, argument key).  Where a span would swamp the
call (jet construction, compiled expression closures, `seed_group`,
`det`, `evaluate`) the wrapper only bumps a counter.  Leaving the block
restores every binding.  Spans stay in memory until `write` saves them.

Self time is a span's duration minus its children's; calls run on one
thread and nest, so the self times of an op's spans add up to the op's
root span exactly.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span.  The span is named "module.function".
SPANNED = (
    ("cli", "main"),
    ("manifest", "load_spec"),
    ("manifest", "space_from_spec"),
    ("expr", "parse"),
    ("linalg", "inv"),
    ("core", "nonlinear_connection"),
    ("core", "geodesic"),
    ("core", "fundamental_tensor"),
    ("core", "cartan_tensor"),
    ("core", "probe_pairs"),
    ("core", "probe_points"),
    ("randers", "validate_space"),
    ("randers", "theorem_verdict"),
    ("randers", "covariant_derivative"),
    ("randers", "length_gradient"),
    ("randers", "beta_length"),
    ("randers", "spray_closed_form"),
    ("randers", "trace_dX_dv"),
    ("randers", "trace_dY_dv"),
    ("randers", "trace_dY_closed_form"),
    ("randers", "bh_density_closed_form"),
    ("scurvature", "s_curvature"),
    ("scurvature", "s_curvature_transport"),
    ("scurvature", "bh_density_monte_carlo"),
    ("checks", "run_checks"),
)

# (module, function) pairs that only count calls.
COUNTED = (
    ("expr", "evaluate"),
    ("jets", "seed_group"),
    ("linalg", "det"),
)

PROBE_GRIDS = ("core.probe_pairs", "core.probe_points")
POINT_DATA = (
    "randers.spray_closed_form",
    "randers.trace_dX_dv",
    "randers.trace_dY_dv",
    "randers.trace_dY_closed_form",
)


def _probe_key(chart, count=100, seed=0):
    return (chart, count, seed)


def _point_key(space, x, v):
    return (space, tuple(x))


def _mc_key(space, x, sample_count, rng_seed):
    return sample_count


# Argument keys recorded with the span, for the distinct-argument ratios.
KEYS = {
    "core.nonlinear_connection": lambda F, x, v: (F, tuple(x), tuple(v)),
    "core.probe_pairs": _probe_key,
    "core.probe_points": _probe_key,
    "scurvature.bh_density_monte_carlo": _mc_key,
    **{name: _point_key for name in POINT_DATA},
}


def _modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "finslerlab"]


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, key)
        self.counters: dict = defaultdict(itertools.count)
        self.rk4_steps = 0
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original value)
        self.missing: list = []  # traced names this version of the program lacks

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name):
        """`fn` recording one span per call under `name`."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        key_fn = KEYS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            key = key_fn(*args, **kwargs) if key_fn else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, key)

        return spanned

    def _count(self, fn, name):
        counter = self.counters[name]

        @functools.wraps(fn)
        def counted(*args, _next=next, **kwargs):
            _next(counter)
            return fn(*args, **kwargs)

        counted.perfbench_counted = True
        return counted

    def _geodesic(self, fn):
        @functools.wraps(fn)
        def stepped(*args, **kwargs):
            path = fn(*args, **kwargs)
            self.rk4_steps += len(path.times) - 1
            return path

        return stepped

    def _rebind(self, original, replacement) -> None:
        for module in _modules():
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)
                    self._restore.append((module, attribute, original))

    # -- enter / exit -----------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self) -> None:
        import finslerlab.cli  # noqa: F401  (loads every module the CLI reaches)
        from finslerlab import expr, jets, randers

        for module_name, fn_name in SPANNED + COUNTED:
            name = f"{module_name}.{fn_name}"
            original = getattr(sys.modules[f"finslerlab.{module_name}"], fn_name, None)
            if original is None:  # renamed or removed by a later version
                self.missing.append(name)
                continue
            if (module_name, fn_name) in COUNTED:
                wrapper = self._count(original, name)
            elif name == "core.geodesic":
                wrapper = self._geodesic(self.wrap(original, name))
            else:
                wrapper = self.wrap(original, name)
            self._rebind(original, wrapper)

        compiles = self.counters["expr.compile_field"]
        original_compile = expr.compile_field

        @functools.wraps(original_compile)
        def compile_field(*args, _next=next, **kwargs):
            _next(compiles)
            return self._count(original_compile(*args, **kwargs), "expr.eval")

        self._rebind(original_compile, compile_field)

        # Closures compiled before the trace started sit in randers' cache.
        for table in list(getattr(randers, "_COMPILED", {}).values()):
            self._wrap_table(table)

        jet_cls = jets.Jet
        original_init = jet_cls.__init__
        allocs = self.counters["jets.allocs"]

        def counting_init(jet, value, partials, _next=next):
            _next(allocs)
            original_init(jet, value, partials)

        jet_cls.__init__ = counting_init
        self._restore.append((jet_cls, "__init__", original_init))

    def _wrap_table(self, table) -> None:
        for row in [table["b"], *table["a"]]:
            for i, fn in enumerate(row):
                row[i] = self._count(fn, "expr.eval")

    def __exit__(self, *exc_info):
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()
        from finslerlab import randers

        for table in list(getattr(randers, "_COMPILED", {}).values()):
            for row in [table["b"], *table["a"]]:
                for i, fn in enumerate(row):
                    while getattr(fn, "perfbench_counted", False):
                        fn = fn.__wrapped__
                    row[i] = fn
        return False

    # -- results ----------------------------------------------------------------

    def summary(self) -> "Summary":
        """Aggregate the spans and read the counters (call once, at the end:
        reading a counter advances it)."""
        counts = {name: next(counter) for name, counter in list(self.counters.items())}
        return Summary(self.spans, counts)

    def write(self, path) -> None:
        """Save the spans as compressed arrays (names table + columns)."""
        import numpy as np

        names = sorted({s[0] for s in self.spans})
        ids = {name: i for i, name in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([ids[s[0]] for s in self.spans], dtype=np.int16),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
        )


class Summary:
    """Per-name call counts, inclusive and self time, and argument keys."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)  # outermost span of each name only
        self.self_time = defaultdict(float)
        children = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            self.calls[name] += 1
            self.self_time[name] += duration - children[index]
            if not self.nested(parent, (name,)):
                self.inclusive[name] += duration

    def nested(self, parent, names) -> bool:
        """True when an ancestor span carries one of `names`."""
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def keys(self, names, outermost=False) -> list:
        """Argument keys of the spans named in `names`; with `outermost`,
        only of spans that no other span of those names encloses."""
        return [
            key
            for name, _, _, parent, key in self.spans
            if name in names and not (outermost and self.nested(parent, names))
        ]

    def distinct_ratio(self, names, outermost=False) -> float:
        """Distinct argument keys over calls (0 when there were no calls)."""
        keys = self.keys(names, outermost)
        return len(set(keys)) / len(keys) if keys else 0.0

    @property
    def total_self(self) -> float:
        return sum(self.self_time.values())


# Per-layer metrics: (name, unit, better).  Values are per traced op
# except ratios and rates.
LAYER_METRICS = (
    ("cli.self_ms", "ms/op", "lower"),
    ("manifest.load_spec_ms", "ms/op", "lower"),
    ("manifest.space_from_spec_ms", "ms/op", "lower"),
    ("expr.parse_calls", "count/op", "lower"),
    ("expr.parse_ms", "ms/op", "lower"),
    ("expr.compile_calls", "count/op", "lower"),
    ("expr.eval_calls", "count/op", "lower"),
    ("jets.allocs", "count/op", "lower"),
    ("jets.seed_group_calls", "count/op", "lower"),
    ("linalg.inv_calls", "count/op", "lower"),
    ("linalg.inv_ms", "ms/op", "lower"),
    ("linalg.det_calls", "count/op", "lower"),
    ("core.nonlinear_connection_ms", "ms/op", "lower"),
    ("core.nonlinear_connection_distinct_ratio", "1", "higher"),
    ("core.geodesic_ms", "ms/op", "lower"),
    ("core.rk4_steps", "count/op", "lower"),
    ("core.fundamental_tensor_ms", "ms/op", "lower"),
    ("core.cartan_tensor_ms", "ms/op", "lower"),
    ("core.probe_grid_ms", "ms/op", "lower"),
    ("core.probe_grid_distinct_ratio", "1", "higher"),
    ("randers.spray_closed_form_calls", "count/op", "lower"),
    ("randers.spray_closed_form_ms", "ms/op", "lower"),
    ("randers.point_data_distinct_ratio", "1", "higher"),
    ("randers.theorem_verdict_ms", "ms/op", "lower"),
    ("randers.validate_space_ms", "ms/op", "lower"),
    ("randers.covariant_derivative_ms", "ms/op", "lower"),
    ("randers.length_gradient_ms", "ms/op", "lower"),
    ("randers.beta_length_calls", "count/op", "lower"),
    ("randers.bh_density_closed_form_calls", "count/op", "lower"),
    ("scurvature.s_curvature_ms", "ms/op", "lower"),
    ("scurvature.transport_ms", "ms/op", "lower"),
    ("scurvature.transport_calls", "count/op", "lower"),
    ("scurvature.mc_ms", "ms/op", "lower"),
    ("scurvature.mc_samples_per_s", "1/s", "higher"),
    ("checks.run_checks_self_ms", "ms/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def layer_values(summary: Summary, ops: int, rk4_steps: int) -> dict:
    """Every LAYER_METRICS value except trace.overhead_pct, from one traced phase."""
    calls, counts = summary.calls, summary.counts

    def ms(name):
        return 1e3 * summary.inclusive[name] / ops

    probe_ms = sum(
        end - start
        for name, start, end, parent, _ in summary.spans
        if name in PROBE_GRIDS and not summary.nested(parent, PROBE_GRIDS)
    )
    mc_s = summary.inclusive["scurvature.bh_density_monte_carlo"]
    mc_samples = sum(summary.keys(("scurvature.bh_density_monte_carlo",)))
    return {
        "cli.self_ms": 1e3 * summary.self_time["cli.main"] / ops,
        "manifest.load_spec_ms": ms("manifest.load_spec"),
        "manifest.space_from_spec_ms": ms("manifest.space_from_spec"),
        "expr.parse_calls": calls["expr.parse"] / ops,
        "expr.parse_ms": ms("expr.parse"),
        "expr.compile_calls": counts.get("expr.compile_field", 0) / ops,
        "expr.eval_calls": (counts.get("expr.eval", 0) + counts.get("expr.evaluate", 0)) / ops,
        "jets.allocs": counts.get("jets.allocs", 0) / ops,
        "jets.seed_group_calls": counts.get("jets.seed_group", 0) / ops,
        "linalg.inv_calls": calls["linalg.inv"] / ops,
        "linalg.inv_ms": ms("linalg.inv"),
        "linalg.det_calls": counts.get("linalg.det", 0) / ops,
        "core.nonlinear_connection_ms": ms("core.nonlinear_connection"),
        "core.nonlinear_connection_distinct_ratio": summary.distinct_ratio(
            ("core.nonlinear_connection",)
        ),
        "core.geodesic_ms": ms("core.geodesic"),
        "core.rk4_steps": rk4_steps / ops,
        "core.fundamental_tensor_ms": ms("core.fundamental_tensor"),
        "core.cartan_tensor_ms": ms("core.cartan_tensor"),
        "core.probe_grid_ms": 1e3 * probe_ms / ops,
        "core.probe_grid_distinct_ratio": summary.distinct_ratio(PROBE_GRIDS, outermost=True),
        "randers.spray_closed_form_calls": calls["randers.spray_closed_form"] / ops,
        "randers.spray_closed_form_ms": ms("randers.spray_closed_form"),
        "randers.point_data_distinct_ratio": summary.distinct_ratio(POINT_DATA),
        "randers.theorem_verdict_ms": ms("randers.theorem_verdict"),
        "randers.validate_space_ms": ms("randers.validate_space"),
        "randers.covariant_derivative_ms": ms("randers.covariant_derivative"),
        "randers.length_gradient_ms": ms("randers.length_gradient"),
        "randers.beta_length_calls": calls["randers.beta_length"] / ops,
        "randers.bh_density_closed_form_calls": calls["randers.bh_density_closed_form"] / ops,
        "scurvature.s_curvature_ms": ms("scurvature.s_curvature"),
        "scurvature.transport_ms": ms("scurvature.s_curvature_transport"),
        "scurvature.transport_calls": calls["scurvature.s_curvature_transport"] / ops,
        "scurvature.mc_ms": ms("scurvature.bh_density_monte_carlo"),
        "scurvature.mc_samples_per_s": mc_samples / mc_s if mc_s > 0 else 0.0,
        "checks.run_checks_self_ms": 1e3 * summary.self_time["checks.run_checks"] / ops,
    }
