"""Registry of application value types that may cross the wire.

Both codecs can carry instances of *registered* classes: a class registers
under a stable type name together with functions that convert an instance to
and from a plain dict of codec-supported values.  This mirrors CORBA
valuetypes / Java ``Serializable`` without resorting to pickle (which would
execute arbitrary reduction code on receipt).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Type

from repro.util.errors import MarshalError

ToDict = Callable[[Any], dict]
FromDict = Callable[[dict], Any]


class TypeRegistry:
    """Maps stable type names to (class, to_dict, from_dict) triples."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._by_name: dict[str, tuple[type, ToDict, FromDict]] = {}
        self._by_class: dict[type, str] = {}

    def register(
        self,
        name: str,
        cls: type,
        to_dict: ToDict | None = None,
        from_dict: FromDict | None = None,
    ) -> None:
        """Register ``cls`` under ``name``.

        When the conversion functions are omitted the instance ``__dict__``
        is used directly and reconstruction bypasses ``__init__`` — adequate
        for simple data-carrier classes.
        """
        if to_dict is None:
            to_dict = lambda obj: dict(vars(obj))  # noqa: E731
        if from_dict is None:

            def from_dict(state: dict, _cls: type = cls) -> Any:
                obj = _cls.__new__(_cls)
                obj.__dict__.update(state)
                return obj

        with self._lock:
            # Re-registration replaces the previous binding.  IDL is often
            # recompiled within one process (each test compiles its own
            # CompiledIdl); the latest generated class wins for decoding.
            previous = self._by_name.get(name)
            if previous is not None:
                self._by_class.pop(previous[0], None)
            self._by_name[name] = (cls, to_dict, from_dict)
            self._by_class[cls] = name

    def name_for(self, obj: Any) -> str | None:
        """Return the registered name for ``obj``'s class, or None."""
        with self._lock:
            return self._by_class.get(type(obj))

    def encode(self, obj: Any) -> tuple[str, dict]:
        """Return (type_name, state_dict) for a registered instance."""
        name = self.name_for(obj)
        if name is None:
            raise MarshalError(f"cannot marshal {type(obj).__name__}; register it as a value type")
        with self._lock:
            _, to_dict, _ = self._by_name[name]
        state = to_dict(obj)
        if not isinstance(state, dict):
            raise MarshalError(f"to_dict for {name!r} must return a dict")
        return name, state

    def decode(self, name: str, state: dict) -> Any:
        """Reconstruct an instance of the type registered under ``name``."""
        with self._lock:
            entry = self._by_name.get(name)
        if entry is None:
            raise MarshalError(f"unknown value type on the wire: {name!r}")
        _, _, from_dict = entry
        return from_dict(state)


global_registry = TypeRegistry()
