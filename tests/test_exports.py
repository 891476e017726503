"""The public names: every ``__all__`` entry resolves and is listed once, and every
package export is listed by the module that defines it."""
import importlib
import pkgutil
from collections import Counter

import pytest

import residualdep

SUBMODULES = [importlib.import_module(f"residualdep.{info.name}")
              for info in pkgutil.iter_modules(residualdep.__path__)]
WITH_ALL = [residualdep] + [m for m in SUBMODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_no_name_listed_twice(module):
    assert [name for name, count in Counter(module.__all__).items() if count > 1] == []


def test_package_exports_are_listed_where_defined():
    unlisted = []
    for name in residualdep.__all__:
        home = importlib.import_module(getattr(residualdep, name).__module__)
        if hasattr(home, "__all__") and name not in home.__all__:
            unlisted.append(f"{home.__name__}.{name}")
    assert unlisted == []
