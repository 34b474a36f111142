"""The package's public names: one list per module, re-exported once.

``wmlab.__all__`` is ``__version__`` followed by the ``__all__`` of each
library module, so a name is made public in exactly one place.
"""

import importlib

import wmlab

MODULES = (
    "errors",
    "model_config",
    "fem1d",
    "spectral",
    "matern",
    "matio",
    "kriging",
    "diagnostics",
)


def _module_lists():
    return [importlib.import_module(f"wmlab.{name}").__all__ for name in MODULES]


def test_package_list_is_the_module_lists_concatenated():
    expected = ["__version__"]
    for names in _module_lists():
        expected.extend(names)
    assert wmlab.__all__ == expected


def test_package_list_has_no_duplicates_and_every_name_resolves():
    assert len(wmlab.__all__) == len(set(wmlab.__all__))
    missing = [name for name in wmlab.__all__ if not hasattr(wmlab, name)]
    assert missing == []


def test_package_names_are_the_module_objects():
    for name, names in zip(MODULES, _module_lists()):
        module = importlib.import_module(f"wmlab.{name}")
        assert [n for n in names if getattr(wmlab, n) is not getattr(module, n)] == [], name


def test_names_once_missing_from_a_module_list_are_listed():
    for name in ("verdict_input_from_models", "curve_rows", "DIRICHLET", "DIRICHLET_LAPLACE"):
        assert name in wmlab.__all__
        assert sum(name in names for names in _module_lists()) == 1
