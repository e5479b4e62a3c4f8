import importlib

import pytest

MODULES = ["grid", "exponents", "expressions", "luxemburg", "sobolev",
           "concentration", "experiments", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry breaks `from varexp.<module> import *`
    module = importlib.import_module(f"varexp.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
