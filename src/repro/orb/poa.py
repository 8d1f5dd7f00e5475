"""Portable Object Adapters.

A POA is a named registry of servants within one ORB.  Servants come in two
flavours, matching CORBA:

- *static* servants — plain Python objects whose typed methods are invoked
  through a :class:`~repro.orb.stubs.StaticSkeleton` built from interface
  metadata (registered with ``interface=``);
- *dynamic* servants — :class:`~repro.orb.dsi.DynamicImplementation`
  instances receiving every operation through ``invoke()`` (the CQoS
  skeleton path).

The paper's replica naming convention maps directly: the ``i``-th replica of
object ``OID`` creates POA ``"OID_agent_poa_i"`` and activates its CQoS
skeleton under object id ``"OID_CQoS_Skeleton"``.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

from repro.idl.compiler import InterfaceDef
from repro.orb.dsi import DynamicImplementation
from repro.orb.ior import IOR, make_object_key, repository_id
from repro.orb.stubs import StaticSkeleton
from repro.util.errors import BindError, ConfigurationError

if TYPE_CHECKING:
    from repro.orb.orb import Orb


class _Activation:
    """One activated object: either a static skeleton or a DSI servant."""

    def __init__(self, servant, skeleton: StaticSkeleton | None, type_id: str):
        self.servant = servant
        self.skeleton = skeleton
        self.type_id = type_id


class Poa:
    """A named object adapter; create via :meth:`repro.orb.orb.Orb.create_poa`."""

    def __init__(self, orb: "Orb", name: str):
        self._orb = orb
        self.name = name
        self._lock = threading.Lock()
        self._objects: dict[str, _Activation] = {}

    def activate_object(
        self,
        object_id: str,
        servant,
        interface: InterfaceDef | None = None,
    ) -> IOR:
        """Register ``servant`` under ``object_id`` and return its IOR.

        Static servants require ``interface`` metadata for dispatch;
        :class:`DynamicImplementation` servants must omit it.
        """
        if isinstance(servant, DynamicImplementation):
            if interface is not None:
                raise ConfigurationError("DSI servants do not take interface metadata")
            type_id = "IDL:omg.org/CORBA/Object:1.0"
            activation = _Activation(servant, None, type_id)
        else:
            if interface is None:
                raise ConfigurationError(
                    "static servants require interface metadata (interface=...)"
                )
            type_id = repository_id(interface.name)
            skeleton = StaticSkeleton(servant, interface, self._orb.compiled)
            activation = _Activation(servant, skeleton, type_id)
        with self._lock:
            if object_id in self._objects:
                raise ConfigurationError(
                    f"object id {object_id!r} already active in POA {self.name!r}"
                )
            self._objects[object_id] = activation
        return self.id_to_reference(object_id)

    def id_to_reference(self, object_id: str) -> IOR:
        """Build the IOR for an activated object id."""
        with self._lock:
            activation = self._objects.get(object_id)
        if activation is None:
            raise BindError(f"no object {object_id!r} in POA {self.name!r}")
        return IOR(
            type_id=activation.type_id,
            address=self._orb.endpoint_address,
            object_key=make_object_key(self.name, object_id),
        )

    def lookup(self, object_id: str) -> _Activation | None:
        # A dict read is atomic; only writers take the lock.
        return self._objects.get(object_id)

    def object_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._objects)

    def destroy(self) -> None:
        with self._lock:
            self._objects.clear()
        self._orb._drop_poa(self.name)
