"""PEP 562 lazy exports for the package ``__init__`` modules.

Each package lists its public names in one table, module path to the
names that module provides, and calls :func:`install` on its globals.
A name's module is imported on first access and the value is cached in
the package globals, so later lookups are plain attribute reads and a
command loads only the modules its code path touches.
"""

from __future__ import annotations

import importlib
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple


def install(namespace: Dict[str, Any], table: Mapping[str, Iterable[str]],
            submodules: Iterable[str] = ()) -> None:
    """Give the package whose globals are ``namespace`` lazy exports.

    ``table`` maps a module path to the names it exports; every name in
    ``submodules`` resolves to the package's submodule of that name.
    Installs the module-level ``__getattr__`` and ``__dir__`` and
    appends the names to ``__all__``.
    """
    package = namespace["__name__"]
    origin: Dict[str, Tuple[str, Optional[str]]] = {
        name: (module, name) for module, names in table.items()
        for name in names}
    origin.update((name, (f"{package}.{name}", None)) for name in submodules)

    def __getattr__(name: str) -> Any:
        try:
            module_name, attr = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name)
        value = module if attr is None else getattr(module, attr)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    namespace["__getattr__"] = __getattr__
    namespace["__dir__"] = __dir__
    namespace["__all__"] = [*namespace.get("__all__", ()), *origin]
