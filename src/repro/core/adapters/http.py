"""CQoS on HTTP (the paper's §2.1 generality claim) — everything the HTTP
platform is.

"It would be feasible to intercept HTTP requests and replies, in which case
the TCP socket layer would be viewed as the middleware layer."  Here it is:
the CQoS skeleton mounts as a *generic* HTTP object in place of the real
servant (the proxy-resource pattern), the CQoS stub posts operations to it,
piggyback data rides ``X-CQoS-*`` headers (written and read by
:mod:`repro.http.message`, so any marshallable key or value round-trips
losslessly), and replica discovery uses the path registry with the
convention name ``"<OID>/replica-<i>"``.

All request-lifecycle machinery lives in the shared invocation kernel
(:mod:`repro.core.platform`); this module supplies the HTTP codec surface —
the path-registry naming convention, lookup/enumeration, and request
conversion (abstract request → one POST on the replica's ``(address,
object_id)`` endpoint) — and :class:`HttpHost`, the one place that knows
how an HTTP host is started, what its bootstrap service is, and how a
replica is installed on it and removed again.

Nothing in :mod:`repro.qos` knows this platform exists — which is the whole
point of the two-component architecture.
"""

from __future__ import annotations

from typing import Any

from repro.core.platform import (
    BaseClientPlatform,
    BaseServerPlatform,
    BaseSkeletonServant,
)
from repro.core.skeleton import CqosSkeleton
from repro.http.client import HttpClient, make_http_stub_class
from repro.http.registry import REGISTRY_HOST, HttpRegistryClient, start_http_registry
from repro.http.server import HttpObjectServer
from repro.idl.compiler import CompiledIdl, InterfaceDef, ServantSkeleton
from repro.net.transport import Network

__all__ = [
    "HttpClientPlatform",
    "HttpCqosSkeletonServant",
    "HttpHost",
    "HttpServerPlatform",
]


def _registry_entry(object_id: str, replica: int) -> str:
    """Path-registry naming convention for replicas: ``"OID/replica-i"``."""
    return f"{object_id}/replica-{replica}"


class HttpCqosSkeletonServant(BaseSkeletonServant):
    """Generic HTTP object delivering every POST to the skeleton core."""


class _HttpRegistryMixin:
    """Shared HTTP name resolution through the path registry."""

    _client: HttpClient
    _registry: HttpRegistryClient

    def _resolve(self, name: str) -> tuple[str, str]:
        return self._registry.lookup(name)

    def _list_names(self, prefix: str) -> list:
        return self._registry.list(prefix)

    def _send(self, endpoint: tuple[str, str], operation: str, params: list, piggyback) -> Any:
        address, object_id = endpoint
        return self._client.post(address, object_id, operation, params, piggyback=piggyback)

    def _send_async(self, endpoint: tuple[str, str], operation: str, params: list, piggyback):
        address, object_id = endpoint
        return self._client.post_async(
            address, object_id, operation, params, piggyback=piggyback
        )


class HttpServerPlatform(_HttpRegistryMixin, BaseServerPlatform):
    """Server-side Cactus QoS interface implementation on HTTP."""

    def __init__(
        self,
        server: HttpObjectServer,
        client: HttpClient,
        registry: HttpRegistryClient,
        object_id: str,
        replica: int,
        servant: Any,
        interface: InterfaceDef,
        total_replicas: int = 1,
        observers=None,
        router=None,
    ):
        self._server = server
        self._client = client
        self._registry = registry
        super().__init__(
            object_id,
            replica,
            ServantSkeleton(servant, interface),
            total_replicas=total_replicas,
            observers=observers,
            router=router,
        )

    def _peer_name(self, replica: int) -> str:
        return _registry_entry(self.object_id, replica)


class HttpClientPlatform(_HttpRegistryMixin, BaseClientPlatform):
    """Client-side Cactus QoS interface implementation on HTTP."""

    def __init__(
        self,
        client: HttpClient,
        registry: HttpRegistryClient,
        object_id: str,
        observers=None,
        router=None,
    ):
        self._client = client
        self._registry = registry
        super().__init__(object_id, observers=observers, router=router)

    def _replica_name(self, replica: int) -> str:
        return _registry_entry(self.object_id, replica)

    def _replica_prefix(self) -> str:
        return f"{self.object_id}/replica-"


class HttpHost:
    """One HTTP host of a deployment: an object server, a client, CQoS."""

    #: Where this platform's bootstrap service (the path registry) lives.
    BOOTSTRAP_HOST = REGISTRY_HOST

    def __init__(self, network: Network, host_name: str, compiled: CompiledIdl):
        self._server = HttpObjectServer(network, host_name, compiled)
        self._client = HttpClient(network, host_name)
        self._registry = HttpRegistryClient(self._client)
        self._mounted: dict[tuple[str, int], str] = {}  # replica -> mount id

    def start(self) -> "HttpHost":
        """Open the server endpoint.  Client-only hosts skip this."""
        self._server.start()
        return self

    def shutdown(self) -> None:
        self._server.shutdown()
        self._client.close()

    def start_bootstrap(self) -> None:
        start_http_registry(self._server)

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
        """Mount the CQoS skeleton for one replica and register its path.

        Arguments as in
        :meth:`repro.core.adapters.corba.CorbaHost.install_replica`.  The
        mount id is ``"<OID>_CQoS_Skeleton"``, suffixed ``_<i>`` when a
        ``router`` is given: a member of a sharded deployment may serve
        several logical replicas of one object across a handoff window.
        The registry *name* is ``"<OID>/replica-<i>"`` either way.
        """
        platform = HttpServerPlatform(
            self._server,
            self._client,
            self._registry,
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
        mount_id = f"{object_id}_CQoS_Skeleton"
        if router is not None:
            mount_id = f"{mount_id}_{replica}"
        self._server.mount_generic(
            mount_id, HttpCqosSkeletonServant(skeleton, observers=observers)
        )
        self._mounted[(object_id, replica)] = mount_id
        self._registry.rebind(
            _registry_entry(object_id, replica), self._server.endpoint_address, mount_id
        )
        return skeleton

    def unmount_replica(self, object_id: str, replica: int) -> None:
        """Stop serving the replica's skeleton here (its name stays bound)."""
        mount_id = self._mounted.pop((object_id, replica), None)
        if mount_id is not None:
            self._server.unmount(mount_id)

    def unbind_replica(self, object_id: str, replica: int) -> None:
        """Remove the replica's bootstrap-service entry."""
        self._registry.unbind(_registry_entry(object_id, replica))

    def deploy_plain(
        self, object_id: str, replica: int, servant: Any, interface: InterfaceDef
    ) -> None:
        """Mount ``servant`` behind the server's own typed dispatch,
        registered under the replica's name so CQoS stubs can still find it."""
        self._server.mount(object_id, servant, interface)
        self._registry.rebind(
            _registry_entry(object_id, replica), self._server.endpoint_address, object_id
        )

    def plain_stub(self, object_id: str, replica: int, interface: InterfaceDef):
        """The generated plain HTTP stub for the replica (no CQoS)."""
        address, mount_id = self._registry.lookup(_registry_entry(object_id, replica))
        return make_http_stub_class(interface)(self._client, address, mount_id)

    def client_platform(self, object_id: str, observers=None, router=None):
        return HttpClientPlatform(
            self._client, self._registry, object_id, observers=observers, router=router
        )


#: What :data:`repro.core.adapters.HOSTS` resolves ``"http"`` to.
HOST = HttpHost
