"""Static configuration of composite protocols.

The paper offers two static-customization routes: modifying the composite
protocol's constructor, or a configuration file read at construction time.
This module provides the second one, as data rather than a file:

- micro-protocol classes register under stable names
  (:func:`register_micro_protocol`);
- a configuration is a list of :class:`MicroProtocolSpec` (name +
  keyword parameters; a §3.5 matrix point's comes from
  :func:`repro.qos.combinations.protocol_specs`), whose one serialised
  form is :meth:`MicroProtocolSpec.to_wire` / ``from_wire``, what
  :mod:`repro.cactus.dynamic` ships between hosts;
- :func:`build_micro_protocols` instantiates a configuration against the
  registry, producing the list a composite's ``configure()`` takes;
- a package of micro-protocols may *declare* them by name instead of
  importing them (:func:`declare_micro_protocols`, as :mod:`repro.qos`
  does): a name the registry does not hold yet resolves by importing the
  module declared for it, the first time a configuration names it.

The same registry is what the dynamic path (:mod:`repro.cactus.dynamic`)
loads from, standing in for Cactus/J's Java dynamic code loading — we load
trusted registered classes by name rather than shipping bytecode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cactus.composite import MicroProtocol

_registry: dict[str, type] = {}
# Declared name -> the module whose import registers it.
_declared: dict[str, str] = {}
_registry_lock = threading.Lock()


def register_micro_protocol(name: str, cls: type | None = None):
    """Register a micro-protocol class under ``name``.

    Usable directly or as a class decorator::

        @register_micro_protocol("ActiveRep")
        class ActiveRep(MicroProtocol): ...
    """

    def do_register(target: type) -> type:
        with _registry_lock:
            existing = _registry.get(name)
            if existing is not None and existing is not target:
                raise ConfigurationError(f"micro-protocol name {name!r} already registered")
            _registry[name] = target
        return target

    if cls is not None:
        return do_register(cls)
    return do_register


def declare_micro_protocols(table: dict[str, str]) -> None:
    """Declare micro-protocols by name: ``table`` maps a name to the module
    whose import registers it.  Declaring imports nothing."""
    with _registry_lock:
        _declared.update(table)


def resolve_micro_protocol(name: str) -> type:
    """The class registered under ``name``, importing its declared module
    if the registry does not hold it yet."""
    cls = _registry.get(name)
    if cls is None and name in _declared:
        import_module(_declared[name])
        cls = _registry.get(name)
    if cls is None:
        known = ", ".join(sorted(_registry.keys() | _declared.keys())) or "<none>"
        raise ConfigurationError(f"unknown micro-protocol {name!r}; registered: {known}")
    return cls


def micro_protocol_registry() -> dict[str, type]:
    """A snapshot of every micro-protocol class a configuration may name,
    the declared ones imported first."""
    for name in list(_declared):
        resolve_micro_protocol(name)
    with _registry_lock:
        return dict(_registry)


@dataclass
class MicroProtocolSpec:
    """One configured micro-protocol: registered name + keyword parameters."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_wire(cls, wire: dict) -> "MicroProtocolSpec":
        return cls(name=wire["name"], params=dict(wire.get("params", {})))


def build_micro_protocols(specs: list[MicroProtocolSpec]) -> list["MicroProtocol"]:
    """Instantiate a configuration against the registry."""
    instances = []
    for spec in specs:
        cls = resolve_micro_protocol(spec.name)
        try:
            instances.append(cls(**spec.params))
        except TypeError as exc:
            raise ConfigurationError(
                f"bad parameters for micro-protocol {spec.name!r}: {exc}"
            ) from exc
    return instances
