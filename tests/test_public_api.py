import importlib
import inspect
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import pytest

import rankzero


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(rankzero.__path__)])
def test_every_public_name_exists(name):
    # a stale name here is skipped silently by tools that wrap each export
    mod = importlib.import_module(f"rankzero.{name}")
    missing = [public for public in getattr(mod, "__all__", ()) if not hasattr(mod, public)]
    assert not missing, f"rankzero.{name}.__all__ names undefined {missing}"


def test_no_public_function_truncates():
    # every entry point reads all the rings of the schedule it is given
    truncating = set()
    for info in pkgutil.iter_modules(rankzero.__path__):
        mod = importlib.import_module(f"rankzero.{info.name}")
        for public in getattr(mod, "__all__", ()):
            value = getattr(mod, public)
            if inspect.isfunction(value) and "rows_used" in inspect.signature(value).parameters:
                truncating.add(f"{info.name}.{public}")
    assert not truncating


def _readme_sketch() -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_sketch_runs():
    exec(compile(_readme_sketch(), "README.md", "exec"), {})


def test_package_root_exports_the_sketch_names():
    # everything else is imported from its module
    imported = re.search(r"from rankzero import \((.*?)\)", _readme_sketch(), re.S).group(1)
    root = {name for name, value in vars(rankzero).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert root == {name.strip() for name in imported.split(",") if name.strip()}
