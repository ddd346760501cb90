"""The package's exports: sievekit.__all__ is derived from what
sievekit/__init__.py imports, so the names are written down once."""

import inspect

import sievekit


def test_all_is_the_public_names_the_imports_bind():
    # modules (os and the submodules) are bound too, but are not exports
    public = {name for name, value in vars(sievekit).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert sievekit.__all__ == sorted(public)
    assert {"os", "experiments", "primes"}.isdisjoint(sievekit.__all__)


def test_every_export_is_defined_in_the_package():
    for name in sievekit.__all__:
        value = getattr(sievekit, name)
        assert value.__module__.startswith("sievekit."), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from sievekit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sievekit.__all__
