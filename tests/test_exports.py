import importlib
import os
import pkgutil
import subprocess
import sys

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


# each import must not load these modules; one fresh interpreter per case
IMPORT_GUARDS = {
    "crackscope": [m for m in MODULES if m not in ("crackscope", "crackscope.errors")],
    "crackscope.cli": [
        "scipy.ndimage",
        "crackscope.maskgeom",
        "crackscope.gradcheck",
        "crackscope.attention",
        "crackscope.ops",
        "crackscope.boxes",
    ],
    "crackscope.dataio": ["crackscope.metrics"],
    "crackscope.maskgeom": ["crackscope.boxes", "crackscope.ops"],
}


@pytest.mark.parametrize("name", IMPORT_GUARDS)
def test_import_loads_only_what_it_needs(name):
    root = os.path.dirname(crackscope.__path__[0])
    code = f"import sys; sys.path.insert(0, {root!r}); import {name}; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & set(IMPORT_GUARDS[name])
