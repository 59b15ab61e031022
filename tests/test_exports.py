import importlib
import pkgutil

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
