"""Deployment façade: assemble complete CQoS systems in a few calls.

:class:`CqosDeployment` owns one network, one middleware platform choice
(a key of :data:`repro.core.adapters.HOSTS`), its bootstrap service (naming
service / RMI registry / path registry), and the hosts it creates.  What a
platform *is* stays behind its adapter's host class; nothing here names
one.  Typical use::

    network = InMemoryNetwork()
    dep = CqosDeployment(network, platform="corba", compiled=compiled)
    dep.add_replicas("acct", lambda: BankAccount(), iface, replicas=3,
                     server_micro_protocols=lambda: [TotalOrder(), ServerBase()])
    stub = dep.client_stub("acct", iface,
                           client_micro_protocols=lambda: [ActiveRep(), MajorityVote(), ClientBase()])
    stub.set_balance(100.0)

Micro-protocol configurations are passed as zero-argument factories (each
replica and each client needs fresh instances), as
:class:`~repro.cactus.config.MicroProtocolSpec` lists, or as plain
registered-name lists — the latter two go through the static-configuration
machinery of :mod:`repro.cactus.config`, where a name :mod:`repro.qos`
declares imports its module the first time a configuration gives it.

The Table 1 ladder is directly expressible: ``plain_stub`` /
``deploy_plain_replica`` give the original-platform rung;
``client_stub(..., with_cactus_client=False)`` and
``add_replicas(..., server_micro_protocols=None)`` give the interceptor-only
rungs.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

import repro.qos  # noqa: F401  (declares the micro-protocol names a configuration may give)
from repro.cactus.composite import MicroProtocol
from repro.cactus.config import MicroProtocolSpec, build_micro_protocols
from repro.cactus.runtime import CactusRuntime
from repro.core.adapters import HOSTS, host_class
from repro.core.client import CactusClient
from repro.core.request import Request
from repro.core.server import CactusServer
from repro.core.skeleton import CqosSkeleton
from repro.core.stub import CqosStub, make_cqos_stub_class
from repro.idl.compiler import CompiledIdl, InterfaceDef
from repro.net.transport import Network
from repro.util.errors import ConfigurationError
from repro.util.ids import IdGenerator

# A micro-protocol configuration, in any accepted form.
MpConfig = (
    Callable[[], list[MicroProtocol]]
    | Sequence[MicroProtocolSpec]
    | Sequence[str]
    | None
)


def _instantiate(config: MpConfig | str) -> list[MicroProtocol]:
    """Normalize a configuration into fresh micro-protocol instances."""
    if config is None or config == "with_base":
        return []
    if callable(config):
        return list(config())
    specs = [
        spec if isinstance(spec, MicroProtocolSpec) else MicroProtocolSpec(str(spec))
        for spec in config
    ]
    return build_micro_protocols(specs)


class CqosDeployment:
    """One network + one platform + the CQoS objects deployed on it."""

    PLATFORMS = tuple(HOSTS)

    def __init__(
        self,
        network: Network,
        platform: str,
        compiled: CompiledIdl,
        request_timeout: float | None = 30.0,
    ):
        if platform not in HOSTS:
            raise ConfigurationError(
                f"platform must be one of {self.PLATFORMS}, not {platform!r}"
            )
        self.network = network
        self.platform = platform
        self.compiled = compiled
        self.request_timeout = request_timeout
        self._ids = IdGenerator()
        self._lock = threading.Lock()
        self._hosts: list = []
        self._cactus: list[CactusServer | CactusClient] = []
        # Every composite's lane and timers run on the network's one set,
        # beside the transport's own loops.
        self._threads = network.threads
        self._replica_hosts: dict[tuple[str, int], str] = {}
        # id(interface) -> its generated stub class.  The class holds the
        # interface (``__idl_interface__``), so a cached id is never reused.
        self._stub_classes: dict[int, type] = {}
        self._host_class = host_class(platform)
        self._new_host(self._host_class.BOOTSTRAP_HOST).start().start_bootstrap()

    def _new_host(self, host_name: str):
        """One more host of this deployment's platform, shut down by ``close``."""
        host = self._host_class(self.network, host_name, self.compiled)
        with self._lock:
            self._hosts.append(host)
        return host

    def _new_replica_host(self, object_id: str, replica: int):
        """A started host under the replica's conventional host name."""
        host_name = self.replica_host_name(object_id, replica)
        self._replica_hosts[(object_id, replica)] = host_name
        return self._new_host(host_name).start()

    def _track(self, composite: CactusServer | CactusClient) -> None:
        with self._lock:
            self._cactus.append(composite)

    # -- server side ------------------------------------------------------

    def replica_host_name(self, object_id: str, replica: int) -> str:
        return f"{object_id}-server-{replica}"

    def add_replicas(
        self,
        object_id: str,
        servant_factory: Callable[[], Any],
        interface: InterfaceDef,
        replicas: int = 1,
        server_micro_protocols: MpConfig = "with_base",
        priority_policy: Callable[[Request], int] | None = None,
        observers: Sequence[Any] | None = None,
    ) -> list[CqosSkeleton]:
        """Deploy ``replicas`` CQoS-intercepted replicas of one object.

        ``server_micro_protocols`` configures each replica's Cactus server:

        - the string ``"with_base"`` (default) — ServerBase only;
        - a factory / spec list / name list — those protocols *plus*
          ServerBase appended last;
        - ``None`` — no Cactus server at all (pass-through skeleton).

        ``observers`` attaches kernel
        :class:`~repro.core.platform.InvocationObserver` hooks to every
        replica's skeleton boundary and servant dispatch.
        """
        skeletons: list[CqosSkeleton] = []
        for replica in range(1, replicas + 1):
            host = self._new_replica_host(object_id, replica)
            factory = self._server_factory(
                object_id, replica, server_micro_protocols, priority_policy
            )
            skeletons.append(
                host.install_replica(
                    object_id,
                    replica,
                    servant_factory(),
                    interface,
                    cactus_server_factory=factory,
                    total_replicas=replicas,
                    observers=observers,
                )
            )
        return skeletons

    def _server_factory(
        self,
        object_id: str,
        replica: int,
        config: MpConfig | str,
        priority_policy: Callable[[Request], int] | None,
    ):
        if config is None:
            return None

        def factory(platform) -> CactusServer:
            name = f"cactus-server-{object_id}-{replica}"
            server = CactusServer.with_base(
                platform,
                _instantiate(config),
                name=name,
                request_timeout=self.request_timeout,
                runtime=CactusRuntime(name=f"{name}-rt", threads=self._threads),
                priority_policy=priority_policy,
            )
            self._track(server)
            return server

        return factory

    def deploy_plain_replica(
        self,
        object_id: str,
        servant: Any,
        interface: InterfaceDef,
        replica: int = 1,
    ) -> None:
        """Deploy an *un-intercepted* servant under the replica name.

        Table 1 rungs "Original" and "+CQoS stub" target this: the original
        platform-generated skeleton serves the object, but the reference is
        published under the CQoS replica naming convention so CQoS stubs
        can still find it.
        """
        self._new_replica_host(object_id, replica).deploy_plain(
            object_id, replica, servant, interface
        )

    # -- client side --------------------------------------------------------

    def client_stub(
        self,
        object_id: str,
        interface: InterfaceDef,
        client_micro_protocols: MpConfig | str = "with_base",
        with_cactus_client: bool = True,
        client_id: str | None = None,
        priority: int | None = None,
        host_name: str | None = None,
        runtime_workers: int | None = None,
        observers: Sequence[Any] | None = None,
        router=None,
    ) -> CqosStub:
        """Create a CQoS stub for ``object_id`` on a fresh client host.

        ``client_micro_protocols`` mirrors ``add_replicas``:
        ``"with_base"`` → ClientBase only; a config → those plus ClientBase;
        it is ignored when ``with_cactus_client=False`` (pass-through stub,
        Table 1's "+CQoS stub" rung).  ``observers`` attaches kernel
        :class:`~repro.core.platform.InvocationObserver` hooks to the stub
        boundary and every wire send.  ``router`` attaches a
        :class:`~repro.core.routing.router.ShardRouter` so replica discovery
        goes through the sharded directory view (see
        :class:`~repro.core.shardspace.ShardSpace`).
        """
        host = host_name or f"client-{self._ids.next_int()}"
        platform = self._new_host(host).client_platform(
            object_id, observers=observers, router=router
        )
        cactus_client: CactusClient | None = None
        if with_cactus_client:
            # Replication against gated replicas parks invocation legs on
            # this composite's lane until each replica answers; callers that
            # mix replication with server-side queuing raise its limit.
            name = f"cactus-client-{host}"
            cactus_client = CactusClient.with_base(
                platform,
                _instantiate(client_micro_protocols),
                name=name,
                request_timeout=self.request_timeout,
                runtime=CactusRuntime(
                    workers=runtime_workers, name=f"{name}-rt", threads=self._threads
                ),
            )
            self._track(cactus_client)
        stub_class = self._stub_classes.get(id(interface))
        if stub_class is None:
            stub_class = self._stub_classes.setdefault(
                id(interface), make_cqos_stub_class(interface)
            )
        return stub_class(
            platform,
            object_id,
            cactus_client=cactus_client,
            client_id=client_id,
            priority=priority,
            observers=observers,
        )

    def shard_space(self, groups):
        """Create a sharded object space over this deployment.

        ``groups`` maps group name → member count; see
        :class:`~repro.core.shardspace.ShardSpace`.
        """
        from repro.core.shardspace import ShardSpace

        return ShardSpace(self, groups)

    def plain_stub(
        self,
        object_id: str,
        interface: InterfaceDef,
        replica: int = 1,
        host_name: str | None = None,
    ):
        """Create the *original* platform stub (baseline, no CQoS).

        Targets a replica deployed with :meth:`deploy_plain_replica`.
        """
        host = host_name or f"client-{self._ids.next_int()}"
        return self._new_host(host).plain_stub(object_id, replica, interface)

    # -- fault injection convenience -------------------------------------------

    def crash_replica(self, object_id: str, replica: int) -> None:
        host = self._replica_hosts.get((object_id, replica))
        if host is None:
            raise ConfigurationError(f"unknown replica {replica} of {object_id!r}")
        self.network.crash(host)

    def recover_replica(self, object_id: str, replica: int) -> None:
        host = self._replica_hosts.get((object_id, replica))
        if host is None:
            raise ConfigurationError(f"unknown replica {replica} of {object_id!r}")
        self.network.recover(host)

    # -- teardown ------------------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            composites = list(self._cactus)
            hosts = list(self._hosts)
            self._cactus.clear()
            self._hosts.clear()
        for composite in composites:
            composite.shutdown()
            composite.runtime.shutdown()  # its lane and timers; no thread is its own
        for host in hosts:
            host.shutdown()
        self.network.close()
        # The set went with the network, unless the network is a wrapper that
        # closes only what it wraps and so has a set of its own.
        self._threads.close()

    def __enter__(self) -> "CqosDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
