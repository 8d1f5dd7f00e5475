"""CQoS on Java RMI (paper section 4.2) — everything the RMI platform is.

"Since Java no longer supports server side skeletons, we introduce [the]
CQoS skeleton as a proxy object … [that] export[s] only a generic invoke
method.  …  the skeleton for the i-th replica of object with identifier
OID registers with the Java naming service using name
'OID_CQoS_Skeleton_i'."

All request-lifecycle machinery lives in the shared invocation kernel
(:mod:`repro.core.platform`); this module supplies the RMI codec surface —
the registry naming convention, registry lookup/enumeration, and request
conversion: the abstract request maps directly onto the generic remote
``invoke`` call (no DII equivalent exists, which is why the RMI rows of
Table 1 show smaller conversion overheads) — and :class:`RmiHost`, the one
place that knows how an RMI host is started, what its bootstrap service
is, and how a replica is installed on it and removed again.  The
per-replica :class:`RmiCqosSkeletonServant` (the simulated DSI) is the
kernel's generic skeleton servant unchanged.
"""

from __future__ import annotations

from typing import Any

from repro.core.platform import (
    BaseClientPlatform,
    BaseServerPlatform,
    BaseSkeletonServant,
)
from repro.core.skeleton import CqosSkeleton
from repro.idl.compiler import CompiledIdl, InterfaceDef, ServantSkeleton
from repro.net.transport import Network
from repro.rmi.registry import (
    REGISTRY_HOST,
    RegistryClient,
    registry_client,
    start_registry,
)
from repro.rmi.runtime import RemoteRef, RmiRuntime, make_rmi_stub_class

__all__ = [
    "RmiClientPlatform",
    "RmiCqosSkeletonServant",
    "RmiHost",
    "RmiServerPlatform",
]


def _skeleton_name(object_id: str, replica: int) -> str:
    """The paper's registry naming convention: ``"OID_CQoS_Skeleton_i"``."""
    return f"{object_id}_CQoS_Skeleton_{replica}"


class RmiCqosSkeletonServant(BaseSkeletonServant):
    """Generic remote object delivering every call to the skeleton core.

    The RMI analog of the DSI servant: ``invoke(method, arguments,
    context)`` regardless of which server method the client called — the
    kernel's generic entry point matches RMI's generic export directly.
    """


class _RmiRegistryMixin:
    """Shared RMI name resolution through the registry."""

    _runtime: RmiRuntime
    _registry: RegistryClient

    def _resolve(self, name: str) -> RemoteRef:
        return self._registry.lookup(name)

    def _list_names(self, prefix: str) -> list:
        return self._registry.list(prefix)

    def _send(self, endpoint: RemoteRef, operation: str, params: list, piggyback) -> Any:
        return self._runtime.call(
            endpoint, operation, params, context=dict(piggyback or {})
        )

    def _send_async(self, endpoint: RemoteRef, operation: str, params: list, piggyback):
        return self._runtime.call_async(
            endpoint, operation, params, context=dict(piggyback or {})
        )


class RmiServerPlatform(_RmiRegistryMixin, BaseServerPlatform):
    """Server-side Cactus QoS interface implementation on RMI."""

    def __init__(
        self,
        runtime: RmiRuntime,
        object_id: str,
        replica: int,
        servant: Any,
        interface: InterfaceDef,
        total_replicas: int = 1,
        observers=None,
        router=None,
    ):
        self._runtime = runtime
        self._registry = registry_client(runtime)
        super().__init__(
            object_id,
            replica,
            ServantSkeleton(servant, interface, runtime.compiled),
            total_replicas=total_replicas,
            observers=observers,
            router=router,
        )

    def _peer_name(self, replica: int) -> str:
        return _skeleton_name(self.object_id, replica)


class RmiClientPlatform(_RmiRegistryMixin, BaseClientPlatform):
    """Client-side Cactus QoS interface implementation on RMI."""

    def __init__(self, runtime: RmiRuntime, object_id: str, observers=None, router=None):
        self._runtime = runtime
        self._registry = registry_client(runtime)
        super().__init__(object_id, observers=observers, router=router)

    def _replica_name(self, replica: int) -> str:
        return _skeleton_name(self.object_id, replica)

    def _replica_prefix(self) -> str:
        return f"{self.object_id}_CQoS_Skeleton_"


class RmiHost:
    """One RMI host of a deployment: a runtime, and CQoS on it."""

    #: Where this platform's bootstrap service (the RMI registry) lives.
    BOOTSTRAP_HOST = REGISTRY_HOST

    def __init__(self, network: Network, host_name: str, compiled: CompiledIdl):
        self._runtime = RmiRuntime(network, host_name, compiled)
        self._registry = registry_client(self._runtime)
        self._exported: dict[tuple[str, int], RemoteRef] = {}

    def start(self) -> "RmiHost":
        """Open the server endpoint.  Client-only hosts skip this."""
        self._runtime.start()
        return self

    def shutdown(self) -> None:
        self._runtime.shutdown()

    def start_bootstrap(self) -> None:
        start_registry(self._runtime)

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

        Exports the generic skeleton proxy and registers it under the
        paper's ``"OID_CQoS_Skeleton_i"`` convention.  Arguments as in
        :meth:`repro.core.adapters.corba.CorbaHost.install_replica`.
        """
        platform = RmiServerPlatform(
            self._runtime,
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
        name = _skeleton_name(object_id, replica)
        ref = self._runtime.export_generic(
            RmiCqosSkeletonServant(skeleton, observers=observers), object_id=name
        )
        self._exported[(object_id, replica)] = ref
        self._registry.rebind(name, ref)
        return skeleton

    def unmount_replica(self, object_id: str, replica: int) -> None:
        """Stop serving the replica's skeleton here (its name stays bound)."""
        ref = self._exported.pop((object_id, replica), None)
        if ref is not None:
            self._runtime.unexport(ref)

    def unbind_replica(self, object_id: str, replica: int) -> None:
        """Remove the replica's bootstrap-service entry."""
        self._registry.unbind(_skeleton_name(object_id, replica))

    def deploy_plain(
        self, object_id: str, replica: int, servant: Any, interface: InterfaceDef
    ) -> None:
        """Export ``servant`` through RMI's own typed dispatch, registered
        under the replica's name so CQoS stubs can still find it."""
        ref = self._runtime.export(servant, interface, object_id=object_id)
        self._registry.rebind(_skeleton_name(object_id, replica), ref)

    def plain_stub(self, object_id: str, replica: int, interface: InterfaceDef):
        """The RMI-generated stub for the replica (no CQoS)."""
        ref = self._registry.lookup(_skeleton_name(object_id, replica))
        return make_rmi_stub_class(interface)(self._runtime, ref)

    def client_platform(self, object_id: str, observers=None, router=None):
        return RmiClientPlatform(self._runtime, object_id, observers=observers, router=router)


#: What :data:`repro.core.adapters.HOSTS` resolves ``"rmi"`` to.
HOST = RmiHost
