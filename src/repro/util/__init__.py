"""Shared utilities: clocks, identifiers, errors, and concurrency primitives.

These are the lowest-level substrate pieces used by every other subpackage:
the simulated/real clock abstraction (:mod:`~repro.util.clock`), unique-id
generation (:mod:`~repro.util.ids`), the exception hierarchy
(:mod:`~repro.util.errors`), and the worker threads and priority-aware pool
that back the Cactus runtime (:mod:`~repro.util.concurrency`).  Import them
from their modules; this package exports only :func:`lazy_exports`, the one
way a package ``__init__`` under :mod:`repro` names what it exports.
"""

from importlib import import_module


def lazy_exports(namespace: dict, table: dict[str, str]):
    """PEP 562 hooks exporting ``table`` (name → defining module) from the
    package whose globals are ``namespace``; returns ``(__getattr__,
    __dir__, __all__)``.

    Nothing is imported until a name is first read: that read imports the
    name's module and caches the value in ``namespace``, so every later
    read is a plain global lookup.  A name outside the table raises
    :class:`AttributeError`, which is also what lets ``from package import
    submodule`` fall through to the submodule.
    """
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, list(table)
