import importlib
import pkgutil

import pytest

import rankzero


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(rankzero.__path__)])
def test_every_public_name_exists(name):
    # a stale name here is skipped silently by tools that wrap each export
    mod = importlib.import_module(f"rankzero.{name}")
    missing = [public for public in getattr(mod, "__all__", ()) if not hasattr(mod, public)]
    assert not missing, f"rankzero.{name}.__all__ names undefined {missing}"
