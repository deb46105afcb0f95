import importlib
import inspect
import io
import pkgutil
import re
import tokenize
from functools import cache
from pathlib import Path

import pytest

import finslerlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(finslerlab.__path__))
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["finslerlab", *(f"finslerlab.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@cache
def _program_names() -> set:
    """The identifiers in the package modules (not __init__.py), scripts
    and perfbench, less the name after each `def`: strings, comments and
    the __all__ lists do not count."""
    files = [p for p in (ROOT / "src" / "finslerlab").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    names = set()
    for path in files:
        tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
        names.update(
            tok.string
            for before, tok in zip([None, *tokens], tokens)
            if tok.type == tokenize.NAME and not (before and before.string == "def")
        )
    return names


@pytest.mark.parametrize("name", [f"finslerlab.{m}" for m in MODULES])
def test_every_exported_function_has_a_caller(name):
    """Each function in a module's __all__ is named in the program outside
    its def line, or in a backticked span of README.md as library API.
    Any identifier of that name counts, so a name that is also another
    identifier in the program (`seed`, a parameter as well) can pass
    without a caller."""
    module = importlib.import_module(name)
    names = _program_names()
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    unused = [
        attr
        for attr in getattr(module, "__all__", [])
        if inspect.isfunction(getattr(module, attr))
        and attr not in names
        and not any(re.search(rf"\b{attr}\b", span) for span in spans)
    ]
    assert unused == []
