import importlib
import pkgutil

import pytest

import crackscope

# every module of the package; ``__main__`` is left out because importing it runs the CLI
MODULES = ["crackscope"] + [
    f"crackscope.{info.name}"
    for info in pkgutil.iter_modules(crackscope.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names: {missing}"
