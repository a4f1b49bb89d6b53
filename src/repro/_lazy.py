"""Lazy package namespaces (PEP 562).

A package ``__init__`` maps its public names to the submodules that
define them, and a submodule is imported the first time one of its
names is read.  Library modules import what they use at module top, so
a pool worker forked after a check inherits every module it needed.
"""

import importlib
import sys
from typing import Callable, Dict, Tuple


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps a submodule, named relative to ``package`` (such
    as ``".policy"``), to the space-separated public names it defines.
    A name read for the first time is bound in the package, so later
    reads are plain attribute lookups.
    """
    source = {
        name: module for module, names in exports.items() for name in names.split()
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        if name not in source:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(source[name], package)
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__
