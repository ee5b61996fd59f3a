"""Lazy package fronts (PEP 562).

A front names each public value once, in a table ``{name: ".submodule"}``;
the submodule is imported when the name is first read and the value is
cached in the package namespace, so ``import repro.network.emulator``
loads neither codegen nor the DSL and a simulated run loads only the
modules it executes.
"""

from __future__ import annotations

from importlib import import_module


def lazy_front(namespace: dict, exports: dict[str, str]):
    """The ``(__getattr__, __dir__)`` pair for the package whose globals are
    *namespace* and whose public names are the keys of *exports*."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(submodule, package), name)
        return value

    def __dir__() -> list[str]:
        return list(exports)

    return __getattr__, __dir__
