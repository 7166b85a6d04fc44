"""Lazy package exports (PEP 562), shared by :mod:`repro` and
:mod:`repro.resilience`."""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``, whose
    public names are listed under their defining modules in ``exports``.

    A name's module is imported on its first access and the value is bound
    in ``package``, so later lookups are plain attribute reads.
    """
    module_of = {name: module for module, names in exports.items()
                 for name in names}

    def __getattr__(name: str):
        try:
            module = module_of[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(module_of))

    return __getattr__, __dir__
