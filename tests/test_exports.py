"""Export lists: every name a matchconn module lists in __all__ exists, so
`from matchconn.<module> import *` cannot trip on a stale entry."""

import importlib
import pkgutil

import pytest

import matchconn

MODULES = sorted(m.name for m in pkgutil.iter_modules(matchconn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"matchconn.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
