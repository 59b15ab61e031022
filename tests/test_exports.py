import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import edsm


def test_every_exported_name_resolves():
    # A stale __all__ entry fails only on `from module import *`; check all.
    names = ["edsm"] + [
        f"edsm.{info.name}" for info in pkgutil.iter_modules(edsm.__path__)
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), name
        missing += [f"{name}.{x}" for x in module.__all__ if not hasattr(module, x)]
    assert len(names) > 10 and not missing


def test_import_loads_only_the_standard_library():
    # The library has no run-time dependency.  A fresh interpreter shows
    # every module that importing it pulls in.
    src = Path(edsm.__file__).resolve().parents[1]
    code = (
        "import sys; before = set(sys.modules); import edsm, edsm.cli; "
        "new = {n.split('.')[0] for n in set(sys.modules) - before}; "
        "assert new <= set(sys.stdlib_module_names) | {'edsm'}, new"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
