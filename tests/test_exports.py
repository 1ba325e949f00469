"""Every name that the package or one of its modules lists in ``__all__`` resolves.

A stale entry breaks ``from polya_urn.<module> import *`` and anything that
walks ``__all__`` with ``getattr``.
"""

import importlib
import pkgutil

import pytest

import polya_urn

_MODULES = [polya_urn] + [
    importlib.import_module(f"polya_urn.{info.name}")
    for info in pkgutil.iter_modules(polya_urn.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in _MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
