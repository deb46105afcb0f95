#!/usr/bin/env python3
"""Print a digest of every `analyze` and `validate` report over a fixed spec set.

One line per (command, spec, seed): the exit code and the sha256 of the
JSON report with `wall_time_s` removed (keys sorted).  The specs are the
six catalog spaces (seed "-") and, for each --seeds value, the specs
that perfbench/specgen generates for the three benchmark workloads.
Both commands run in-process at their default flags.  Two checkouts
that print the same lines produce the same reports; diff the output of
a change against its parent's:

    python3 scripts/report_digests.py > digests.txt
    python3 scripts/report_digests.py --seeds 7 11
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import specgen  # noqa: E402
import workloads  # noqa: E402
from finslerlab import cli  # noqa: E402

COMMANDS = ("analyze", "validate")


def workload_specs(seed: int) -> list[dict]:
    """The generated specs of verdict-batch, validate-battery and s-curvature-sweep."""
    return [
        *specgen.generate_set(seed, specgen.family_grid(), "verdict"),
        *specgen.generate_set(seed, workloads.ValidateBattery.SHAPE, "validate"),
        *specgen.generate_set(seed, workloads.SCurvatureSweep.SHAPE, "sweep"),
    ]


def digest(command: str, path: Path) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([command, str(path)])
    report = json.loads(out.getvalue())
    report.pop("wall_time_s", None)
    text = json.dumps(report, sort_keys=True)
    return code, hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7])
    args = parser.parse_args()
    sets = [("-", specgen.catalog_specs())]
    sets += [(str(seed), workload_specs(seed)) for seed in args.seeds]
    with tempfile.TemporaryDirectory() as tmp:
        for seed, specs in sets:
            for spec, path in zip(specs, specgen.write_specs(specs, Path(tmp) / seed)):
                for command in COMMANDS:
                    code, sha = digest(command, path)
                    print(f"{command} {spec['name']} {seed} exit={code} sha256={sha}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
