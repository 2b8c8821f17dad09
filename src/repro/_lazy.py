"""Lazy re-exports for package ``__init__`` modules.

A package lists what it re-exports as ``{module: names}`` and gets back
a module ``__getattr__`` that imports the defining module on first use,
so importing the package costs nothing but the package itself.  Each
process then loads only the plane it runs: a live relay daemon never
pays for the simulator, an experiment never for the asyncio relay.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    namespace: "dict[str, Any]", exports: "Mapping[str, Sequence[str]]"
) -> "tuple[Callable[[str], Any], list[str]]":
    """Return ``(__getattr__, __all__)`` for the package whose
    ``globals()`` is ``namespace``, re-exporting ``exports`` (module
    name → the names it defines).  A name is cached in ``namespace``
    once looked up."""
    home = {name: module for module, names in exports.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return __getattr__, sorted(home)
