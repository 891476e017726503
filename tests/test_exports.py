"""The public names: every ``__all__`` entry resolves and is listed once, every
package export is listed by the module that defines it, and every public function or
class a module with ``__all__`` defines is listed there."""
import dataclasses
import importlib
import inspect
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


def test_package_exports_the_union_of_module_lists():
    # the modules' lists are the only place a public name is written down
    assert residualdep.__all__ == [name for module in WITH_ALL[1:] for name in module.__all__]
    assert [m.__name__.split(".")[1] for m in WITH_ALL[1:]] == \
        ["bias", "copulas", "errors", "estimators", "ingest", "pseudo", "simulate"]
    for name in ("CellGrid", "cell_grid", "evaluate_cells", "uncertainty"):
        home = importlib.import_module(getattr(residualdep, name).__module__)
        assert getattr(residualdep, name) is getattr(home, name), name


def test_package_exports_are_listed_where_defined():
    unlisted = []
    for name in residualdep.__all__:
        home = importlib.import_module(getattr(residualdep, name).__module__)
        if hasattr(home, "__all__") and name not in home.__all__:
            unlisted.append(f"{home.__name__}.{name}")
    assert unlisted == []


@pytest.mark.parametrize("module", WITH_ALL, ids=lambda m: m.__name__)
def test_public_definitions_are_listed(module):
    # a helper that no caller outside the module needs takes a leading underscore
    unlisted = [name for name, obj in vars(module).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__ == module.__name__ and name not in module.__all__]
    assert unlisted == []


def test_removed_names_stay_removed():
    from residualdep import copulas, estimators, pseudo
    for name in ("corrected_eta", "pareto_pseudo", "frechet_pseudo", "SecondOrderSource"):
        assert not hasattr(residualdep, name) and name not in residualdep.__all__, name
    assert not hasattr(copulas, "_as_generator")
    assert [f.name for f in dataclasses.fields(residualdep.SecondOrderParams)] == \
        ["tau_hat", "beta_hat", "k0"]
    spec_fields = {f.name for f in dataclasses.fields(estimators.EstimatorSpec)}
    assert "tag" not in spec_fields and not hasattr(estimators.EstimatorSpec, "is_hill")
    assert [f.name for f in dataclasses.fields(pseudo.PseudoSample)] == ["n", "rmin"]
    for name in ("t_sorted", "v_sorted", "vstar_sorted"):
        assert not hasattr(pseudo.PseudoSample, name), name
    for module, name in ((pseudo, "shift_half"), (estimators, "sorted_margin"),
                         (estimators, "_MARGIN_ATTR"), (estimators, "confidence_interval")):
        assert not hasattr(module, name) and not hasattr(residualdep, name), name


def test_margin_defined_beside_its_transforms():
    from residualdep import estimators, pseudo
    assert residualdep.Margin is estimators.Margin is pseudo.Margin
    assert pseudo.Margin.__module__ == "residualdep.pseudo" and "Margin" in pseudo.__all__
