"""Lazy package surfaces (PEP 562).

A package ``__init__`` lists its public names against the submodules
that define them and imports none of them; a name's submodule is
imported the first time the name is read off the package::

    _EXPORTS = {"Tgd": "dependencies", "Var": "terms"}
    __getattr__, __dir__, __all__ = lazy_surface(__name__, _EXPORTS)

``from pkg import Tgd`` and ``from pkg import *`` resolve through the
same hook, so the import surface is what the eager init offered.
"""

import sys
from importlib import import_module

__all__ = ["lazy_surface"]


def lazy_surface(package, exports):
    """``(__getattr__, __dir__, __all__)`` for ``package`` from a
    ``{public name: defining submodule}`` table."""

    def __getattr__(name):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        # bound like an eager ``from .submodule import name`` would have
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__, list(exports)
