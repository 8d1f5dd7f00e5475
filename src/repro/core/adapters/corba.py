"""CQoS on CORBA (paper section 4.1) — everything the CORBA platform is.

All request-lifecycle machinery (replica directory, lazy bind, liveness
marks, control pings, fault taxonomy, observer hooks) lives in the shared
invocation kernel (:mod:`repro.core.platform`); this module supplies the
CORBA codec surface and :class:`CorbaHost`, the one place that knows how
a CORBA host is started, what its bootstrap service is, and how a replica
is installed on it and removed again:

- naming convention, verbatim from the paper: the POA for the i-th replica
  of object ``OID`` is named ``"OID_agent_poa_i"``, the skeleton activates
  under object id ``"OID_CQoS_Skeleton"``, and the resulting IOR is
  (re)bound in the naming service as ``"OID/replica-i"`` so clients can
  enumerate replicas;
- name resolution through the naming service (IOR string → object
  reference);
- request conversion: each abstract request becomes a CORBA request with
  the **DII** — the conversion the paper identifies as the main CORBA-side
  overhead: a request object, a NamedValue with a derived TypeCode per
  argument, and a conformance check when the reference is typed;
- the DSI :class:`CorbaCqosSkeletonServant` adapting the POA upcall
  calling convention onto the kernel's skeleton dispatch.
"""

from __future__ import annotations

from typing import Any

from repro.core.platform import (
    BaseClientPlatform,
    BaseServerPlatform,
    BaseSkeletonServant,
)
from repro.core.skeleton import CqosSkeleton
from repro.idl.compiler import CompiledIdl, InterfaceDef
from repro.net.transport import Network
from repro.orb.dsi import DynamicImplementation, ServerRequest
from repro.orb.naming import (
    NAMING_HOST,
    NamingClient,
    naming_client,
    start_naming_service,
)
from repro.orb.orb import ObjectRef, Orb
from repro.orb.stubs import StaticSkeleton, make_static_stub_class

__all__ = [
    "CorbaClientPlatform",
    "CorbaCqosSkeletonServant",
    "CorbaHost",
    "CorbaServerPlatform",
]


def _naming_entry(object_id: str, replica: int) -> str:
    """The naming-service entry for one replica: ``"OID/replica-i"``."""
    return f"{object_id}/replica-{replica}"


def _poa_name(object_id: str, replica: int) -> str:
    """The paper's POA naming convention: ``"OID_agent_poa_i"``."""
    return f"{object_id}_agent_poa_{replica}"


class CorbaCqosSkeletonServant(BaseSkeletonServant, DynamicImplementation):
    """DSI wrapper delivering every POA upcall to the CQoS skeleton core."""

    def invoke(self, server_request: ServerRequest) -> None:
        try:
            value = self.dispatch_invocation(
                server_request.operation,
                server_request.arguments(),
                server_request.context(),
            )
        except BaseException as exc:  # noqa: BLE001 - marshalled by the ORB
            server_request.set_exception(exc)
        else:
            server_request.set_result(value)


class _CorbaNamingMixin:
    """Shared CORBA name resolution: naming-service entry → object ref."""

    _orb: Orb
    _naming: NamingClient

    def _resolve(self, name: str) -> ObjectRef:
        return self._orb.string_to_object(self._naming.resolve(name))

    def _list_names(self, prefix: str) -> list:
        return self._naming.list_names(prefix)


class CorbaServerPlatform(_CorbaNamingMixin, BaseServerPlatform):
    """Server-side Cactus QoS interface implementation on the ORB."""

    def __init__(
        self,
        orb: Orb,
        object_id: str,
        replica: int,
        servant: Any,
        interface: InterfaceDef,
        total_replicas: int = 1,
        observers=None,
        router=None,
    ):
        self._orb = orb
        self._naming = naming_client(orb)
        # invoke_servant() is a native call through the IDL-typed dispatch.
        super().__init__(
            object_id,
            replica,
            StaticSkeleton(servant, interface, orb.compiled),
            total_replicas=total_replicas,
            observers=observers,
            router=router,
        )

    def _peer_name(self, replica: int) -> str:
        return _naming_entry(self.object_id, replica)

    def _send(self, endpoint: ObjectRef, operation: str, params: list, piggyback) -> Any:
        return endpoint.invoke_op(operation, params, dict(piggyback or {}))

    def _send_async(self, endpoint: ObjectRef, operation: str, params: list, piggyback):
        return endpoint.invoke_op_async(operation, params, dict(piggyback or {}))


class CorbaClientPlatform(_CorbaNamingMixin, BaseClientPlatform):
    """Client-side Cactus QoS interface implementation on the ORB."""

    def __init__(
        self,
        orb: Orb,
        object_id: str,
        observers=None,
        router=None,
    ):
        self._orb = orb
        self._naming = naming_client(orb)
        super().__init__(object_id, observers=observers, router=router)

    def _replica_name(self, replica: int) -> str:
        return _naming_entry(self.object_id, replica)

    def _replica_prefix(self) -> str:
        return f"{self.object_id}/replica-"

    def _send(self, endpoint: ObjectRef, operation: str, params: list, piggyback) -> Any:
        # The paper's path: abstract request -> CORBA request (DII).
        # ``piggyback`` is already the kernel's per-send copy, and
        # ``set_context`` makes the request's own.
        dii = endpoint._create_request(operation)
        for param in params:
            dii.add_arg(param)
        if piggyback:
            dii.set_context(piggyback)
        dii.invoke()
        return dii.return_value()

    def _send_async(self, endpoint: ObjectRef, operation: str, params: list, piggyback):
        # Deferred-synchronous DII: same request construction and wire
        # bytes as invoke(); only the wait moves to the ReplyFuture.
        dii = endpoint._create_request(operation)
        for param in params:
            dii.add_arg(param)
        if piggyback:
            dii.set_context(piggyback)
        return dii.send_deferred()


class CorbaHost:
    """One CORBA host of a deployment: an ORB, and CQoS on it."""

    #: Where this platform's bootstrap service (the naming service) lives.
    BOOTSTRAP_HOST = NAMING_HOST

    def __init__(self, network: Network, host_name: str, compiled: CompiledIdl):
        self._orb = Orb(network, host_name, compiled)
        self._naming = naming_client(self._orb)

    def start(self) -> "CorbaHost":
        """Open the server endpoint.  Client-only hosts skip this."""
        self._orb.start()
        return self

    def shutdown(self) -> None:
        self._orb.shutdown()

    def start_bootstrap(self) -> None:
        start_naming_service(self._orb)

    def install_replica(
        self,
        object_id: str,
        replica: int,
        servant: Any,
        interface: InterfaceDef,
        cactus_server_factory=None,
        total_replicas: int = 1,
        observers=None,
        router=None,
    ) -> CqosSkeleton:
        """Install the CQoS server side for one replica on this host.

        Mirrors the modified ``startup`` file of the paper: creates the
        convention-named POA, registers the DSI CQoS skeleton (holding a
        pointer to the original servant) under object id
        ``"OID_CQoS_Skeleton"`` and rebinds the replica's name in the
        naming service.  ``cactus_server_factory(platform) -> CactusServer``
        configures the QoS component; ``None`` installs a pass-through
        skeleton (Table 1's "+CQoS skeleton" rung).  ``observers`` attach
        :class:`~repro.core.platform.InvocationObserver` hooks to both the
        skeleton boundary and servant dispatch.
        """
        platform = CorbaServerPlatform(
            self._orb,
            object_id,
            replica,
            servant,
            interface,
            total_replicas=total_replicas,
            observers=observers,
            router=router,
        )
        cactus_server = cactus_server_factory(platform) if cactus_server_factory else None
        skeleton = CqosSkeleton(object_id, platform, cactus_server)
        poa = self._orb.create_poa(_poa_name(object_id, replica))
        ior = poa.activate_object(
            f"{object_id}_CQoS_Skeleton",
            CorbaCqosSkeletonServant(skeleton, observers=observers),
        )
        self._naming.rebind(
            _naming_entry(object_id, replica), self._orb.object_to_string(ior)
        )
        return skeleton

    def unmount_replica(self, object_id: str, replica: int) -> None:
        """Stop serving the replica's skeleton here (its name stays bound)."""
        poa = self._orb.find_poa(_poa_name(object_id, replica))
        if poa is not None:
            poa.destroy()

    def unbind_replica(self, object_id: str, replica: int) -> None:
        """Remove the replica's bootstrap-service entry."""
        self._naming.unbind(_naming_entry(object_id, replica))

    def deploy_plain(
        self, object_id: str, replica: int, servant: Any, interface: InterfaceDef
    ) -> None:
        """Serve ``servant`` through the ORB's own static skeleton, published
        under the replica's name so CQoS stubs can still find it."""
        poa = self._orb.create_poa(f"{object_id}_plain_poa_{replica}")
        ior = poa.activate_object(object_id, servant, interface=interface)
        self._naming.rebind(
            _naming_entry(object_id, replica), self._orb.object_to_string(ior)
        )

    def plain_stub(self, object_id: str, replica: int, interface: InterfaceDef):
        """The ORB-generated static stub for the replica (no CQoS)."""
        ref = self._orb.string_to_object(
            self._naming.resolve(_naming_entry(object_id, replica))
        )
        return make_static_stub_class(interface)(self._orb, ref.ior)

    def client_platform(self, object_id: str, observers=None, router=None):
        return CorbaClientPlatform(self._orb, object_id, observers=observers, router=router)


#: What :data:`repro.core.adapters.HOSTS` resolves ``"corba"`` to.
HOST = CorbaHost
