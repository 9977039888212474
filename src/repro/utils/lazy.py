"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports its submodules' public names
would import every submodule with the package, so a run that needs one
of them pays for all.  Instead it declares which submodule owns each
name::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "spans": ("SpanTracer", "tracing"),
        "report": ("run_report",),
    })

and a submodule is imported the first time one of its names is read
from the package.  Code inside ``repro`` imports from the submodule.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__getattr__, __dir__, __all__)`` of ``package``, whose public
    names ``exports`` maps submodule -> names."""
    owner = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{owner[name]}")
        value = getattr(module, name)
        setattr(sys.modules[package], name, value)   # read once
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
