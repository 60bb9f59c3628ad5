"""Every name that p2qbrace or one of its modules lists in ``__all__`` exists.

A function that is removed but left listed there would break
``from p2qbrace import *`` without any other test failing.
"""

import importlib
import pkgutil

import pytest

import p2qbrace

MODULES = ["p2qbrace"] + sorted(
    f"p2qbrace.{info.name}" for info in pkgutil.iter_modules(p2qbrace.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in listed if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from p2qbrace import *", namespace)
    assert set(p2qbrace.__all__) <= set(namespace)
