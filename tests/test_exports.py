"""Every name an export list promises resolves on its module."""

import importlib
import pkgutil

import pytest

import cayleysum

MODULES = ["cayleysum"] + [
    f"cayleysum.{info.name}"
    for info in pkgutil.iter_modules(cayleysum.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
