"""Lazy package exports (PEP 562).

A package lists what it re-exports in one table, ``name -> submodule``,
and binds the module hooks from it::

    __getattr__, __dir__ = lazy_exports(__name__, {"simulate_compiled": ".compiled"})

A name's submodule is imported the first time the name is looked up,
and the object is then stored in the package's namespace, so later
lookups cost what an eager re-export costs.  A name in ``__all__`` that
the table does not list is a subpackage or submodule of the package and
resolves to that module.

A function may share its name with the submodule that defines it
(``repro.analysis.ilp``).  Importing such a submodule by its dotted path
binds the module on the package over the function; the package then
keeps the function, as an eager ``from .ilp import ilp`` would have.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Tuple


class _KeepShadowedExports(types.ModuleType):
    """A package with at least one export named like its own submodule."""

    def __setattr__(self, name: str, value: object) -> None:
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self.__dict__["_SHADOWED_EXPORTS"]):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Dict[str, str],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``__getattr__`` and ``__dir__`` for ``package``, resolving each
    name of ``table`` from its (relative) submodule on first use."""
    module = sys.modules[package]

    def __getattr__(name: str) -> object:
        source = table.get(name)
        if source is not None:
            value = getattr(importlib.import_module(source, package), name)
        elif name in module.__dict__.get("__all__", ()):
            value = importlib.import_module(f".{name}", package)
        else:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(module.__dict__) | set(table)
                      | set(module.__dict__.get("__all__", ())))

    shadowed = frozenset(
        name for name, source in table.items() if source == f".{name}")
    if shadowed:
        module._SHADOWED_EXPORTS = shadowed
        module.__class__ = _KeepShadowedExports
    return __getattr__, __dir__
