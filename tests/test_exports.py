"""Every module's __all__ names exactly the public functions and classes it defines."""

import importlib
import inspect

import pytest

MODULES = ("meshfem", "decomp", "facets", "traces", "formulations", "linalg",
           "solvers", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    module = importlib.import_module(f"schwarzlab.{name}")
    assert all(hasattr(module, entry) for entry in module.__all__)
    defined = {attr for attr, obj in vars(module).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__}
    assert defined <= set(module.__all__), sorted(defined - set(module.__all__))
