import importlib
import pkgutil

import pytest

import finslerlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(finslerlab.__path__))


@pytest.mark.parametrize("name", ["finslerlab", *(f"finslerlab.{m}" for m in MODULES)])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
