"""Module exports resolved on first use.

A package ``__init__`` that calls ``lazy_exports(__name__, {...})``
keeps ``from package import Name`` working while importing the package
loads none of its submodules: ``Name`` imports its module the first time
it is asked for.  That keeps a warm ``python -m repro.harness`` pass,
which only reads the cache, from importing the compiler, the interpreter
and the planners.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import resolve_name
from types import ModuleType


class _LazyModule(ModuleType):
    """A module whose exports (``_lazy``: name -> absolute module name)
    import their module on first attribute access."""

    _lazy: dict[str, str]

    def __getattr__(self, name: str) -> object:
        if name not in self._lazy:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}")
        value = getattr(import_module(self._lazy[name]), name)
        setattr(self, name, value)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        # Loading a submodule binds it on its package.  Where an export
        # shares the submodule's name (``harness.hpt_study``), the
        # export wins, as after an eager ``from .hpt_study import
        # hpt_study``.
        if (isinstance(value, ModuleType)
                and self._lazy.get(name) == value.__name__):
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(module: str, sources: dict[str, tuple[str, ...]]) -> None:
    """Resolve ``module``'s exports on first use: ``sources`` maps a
    module name, relative to ``module``'s package (``".cache"``,
    ``"..engine"``), to the names it exports.  A resolved name is bound
    on ``module``, so each resolves once."""
    owner = sys.modules[module]
    package = owner.__package__
    owner.__dict__["_lazy"] = {
        name: resolve_name(source, package)
        for source, names in sources.items() for name in names}
    owner.__class__ = _LazyModule
