"""Lazy package exports (PEP 562).

Every package ``__init__`` of :mod:`repro` declares its public names as
one table, defining module -> names, and binds what this helper returns::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.crawler.storage": ("CrawlStore",),
        ...
    })

Importing the package then runs nothing but the table.  A name is
imported from its defining module on first access and cached in the
package namespace, so ``from repro.crawler import CrawlStore`` loads the
store module and what it imports, not the whole crawler (DESIGN.md §3,
import layering).
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(package: str, table: Mapping[str, Sequence[str]]
                 ) -> "tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]":
    """``(__all__, __getattr__, __dir__)`` for ``package``, whose public
    names are listed in ``table`` under the module that defines them."""
    defined_in = {name: module for module, names in table.items()
                  for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = defined_in.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value  # later lookups skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *defined_in})

    return list(defined_in), __getattr__, __dir__
