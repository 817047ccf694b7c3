"""The public API: every exported name resolves."""

import importlib
import pkgutil

import pytest

import sqcap

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sqcap.__path__))


def test_package_all_resolves():
    missing = [name for name in sqcap.__all__ if not hasattr(sqcap, name)]
    assert not missing
    assert len(set(sqcap.__all__)) == len(sqcap.__all__)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves(name):
    mod = importlib.import_module(f"sqcap.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_star_import():
    namespace = {}
    exec("from sqcap import *", namespace)
    assert set(sqcap.__all__) <= namespace.keys()
