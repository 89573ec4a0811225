"""The public names of the package: each module's ``__all__`` resolves."""

import dataclasses
import importlib
import pkgutil

import pytest

import trisym
from trisym import classify

MODULES = ["trisym"] + [
    f"trisym.{info.name}" for info in pkgutil.iter_modules(trisym.__path__)
    if not info.ispkg
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ once failed
    # nothing until someone ran a star import
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        assert name.rpartition(".")[2].startswith("_"), f"{name} has no __all__"
        return
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)


@pytest.mark.parametrize("module,name", [
    ("trisym.classify", "_check_i"),
    ("trisym.molecules", "load_molecule"),
    ("trisym.group_algebra", "normalize"),
])
def test_removed_names_are_gone(module, name):
    # each repeated another name or had no caller
    assert not hasattr(importlib.import_module(module), name)
    assert not hasattr(trisym, name)


def test_removed_attributes_are_gone():
    # RotationalState.I was read by no engine code: state_population gave
    # the whole level's population for any hyperfine component
    assert [f.name for f in dataclasses.fields(classify.RotationalState)] == [
        "J", "K", "species"
    ]
    # ForbiddenBy.sp/.ss repeated SymmetryAssignment.sp_forbidden/.ss_forbidden
    assert not hasattr(classify.ForbiddenBy.SP, "sp")
    assert not hasattr(classify.ForbiddenBy.SS, "ss")
