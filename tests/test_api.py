"""The package's public names are its modules' ``__all__``, re-exported.

Each library module lists its public names once, in its ``__all__``, and
``boxcert`` republishes exactly those.  These tests pin the re-export, not
the list, so a new public name stays a one-place edit.
"""

from __future__ import annotations

import importlib

import pytest

import boxcert

MODULES = ["classifiers", "errors", "kernel", "learners", "numerics", "regions", "verify"]


@pytest.mark.parametrize("name", MODULES)
def test_module_names_are_reexported(name):
    module = importlib.import_module(f"boxcert.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(boxcert, public) is getattr(module, public), public


def test_package_names_are_exactly_the_modules():
    names = boxcert.__all__
    assert len(names) == len(set(names))
    assert not [n for n in names if n.startswith("_")]
    listed = [n for m in MODULES for n in importlib.import_module(f"boxcert.{m}").__all__]
    assert sorted(names) == sorted(listed)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from boxcert import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(boxcert.__all__)
