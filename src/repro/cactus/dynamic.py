"""Dynamic customization: the rBoot/rControl mechanism.

In Cactus/J, dynamic customization works through two generic
micro-protocols: *rBoot* knows only how to connect to a code source and
accept rControl as a Java archive; *rControl* then loads the actual
micro-protocols of the configuration and stays resident so more can be
loaded during execution.

The reproduction keeps the two-stage structure and the deployment benefit
(a composite constructor that starts only ``RBoot`` gets its real
configuration from elsewhere) but substitutes *loading by registered name*
for Java bytecode transfer: shipping executable code between simulated
hosts would add risk without adding fidelity, since what the experiments
exercise is *which* micro-protocols run, not how their code arrives.  The
substitution is recorded in DESIGN.md.

Configuration sources (the paper's three deployment options):

- a peer composite (client downloads from server or vice versa), served by
  :func:`serve_configuration` over the network;
- an external :class:`ConfigurationService` holding configurations per
  ``(user, service)`` pair;
- a local callable, for tests.

As in the prototype, dynamic customization happens when the composite
protocol is created and initialized; ``RControl.load()`` remains available
afterwards for explicitly loading more micro-protocols at run time.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cactus.composite import CompositeProtocol, MicroProtocol
from repro.cactus.config import MicroProtocolSpec, build_micro_protocols
from repro.net.transport import Host, Listener, Network
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import ConfigurationError

ConfigSource = Callable[[], list[MicroProtocolSpec]]

CONFIG_SERVICE_NAME = "cactus-config"


class RControl(MicroProtocol):
    """Loads and manages the micro-protocols of a dynamic configuration.

    Remains installed for the composite's lifetime so new micro-protocols
    can be loaded during execution.
    """

    name = "rControl"

    def __init__(self) -> None:
        super().__init__()
        self._loaded: list[str] = []
        self._lock = threading.Lock()

    def load(self, specs: list[MicroProtocolSpec]) -> list[MicroProtocol]:
        """Instantiate ``specs`` and install them into the composite."""
        instances = build_micro_protocols(specs)
        for instance in instances:
            self.composite.add_micro_protocol(instance)
            with self._lock:
                self._loaded.append(instance.name)
        return instances

    def loaded_names(self) -> list[str]:
        with self._lock:
            return list(self._loaded)


class RBoot(MicroProtocol):
    """Minimal bootstrap: fetch the configuration, hand it to rControl.

    The composite constructor needs to start only this micro-protocol to
    support full dynamic customization.
    """

    name = "rBoot"

    def __init__(self, source: ConfigSource):
        super().__init__()
        self._source = source
        self.control: RControl | None = None

    def start(self) -> None:
        specs = self._source()
        control = RControl()
        self.composite.add_micro_protocol(control)
        control.load(specs)
        self.control = control


def serve_configuration(
    host: Host, specs_provider: Callable[[], list[MicroProtocolSpec]]
) -> Listener:
    """Expose a composite's configuration for peers to download.

    The paper's prototype ships the client configuration from the Cactus
    server over a separate TCP connection; this is that side channel.
    """

    def handle(_request: bytes) -> bytes:
        return jser_dumps([spec.to_wire() for spec in specs_provider()])

    return host.listen(CONFIG_SERVICE_NAME, handle)


def fetch_configuration(host: Host, peer_host_name: str) -> list[MicroProtocolSpec]:
    """Download a configuration served by :func:`serve_configuration`."""
    connection = host.connect(f"{peer_host_name}/{CONFIG_SERVICE_NAME}")
    try:
        payload = jser_loads(connection.call(b"get"))
    finally:
        connection.close()
    return [MicroProtocolSpec.from_wire(item) for item in payload]


def peer_config_source(host: Host, peer_host_name: str) -> ConfigSource:
    """A :class:`RBoot` source that downloads from a peer at start time."""
    return lambda: fetch_configuration(host, peer_host_name)


class ConfigurationService:
    """External configuration service: configurations per (user, service).

    "An external configuration service allows the properties — and thus the
    configurations — to be defined for all [user,service] pairs without
    requiring direct manual configuration of protocols."
    """

    def __init__(self, network: Network, host_name: str = "config-service"):
        self._network = network
        self._host = network.host(host_name)
        self.host_name = host_name
        self._lock = threading.Lock()
        self._table: dict[tuple[str, str], list[MicroProtocolSpec]] = {}
        self._listener = self._host.listen(CONFIG_SERVICE_NAME, self._handle)

    def define(self, user: str, service: str, specs: list[MicroProtocolSpec]) -> None:
        """Install the configuration for a (user, service) pair."""
        with self._lock:
            self._table[(user, service)] = list(specs)

    def _lookup(self, user: str, service: str) -> list[MicroProtocolSpec]:
        with self._lock:
            specs = self._table.get((user, service))
        if specs is None:
            raise ConfigurationError(f"no configuration for user={user!r} service={service!r}")
        return specs

    def _handle(self, request: bytes) -> bytes:
        query = jser_loads(request)
        specs = self._lookup(query["user"], query["service"])
        return jser_dumps([spec.to_wire() for spec in specs])

    def close(self) -> None:
        self._listener.close()

    @staticmethod
    def source(
        network: Network,
        client_host_name: str,
        service_host_name: str,
        user: str,
        service: str,
    ) -> ConfigSource:
        """A :class:`RBoot` source that queries the configuration service."""

        def fetch() -> list[MicroProtocolSpec]:
            host = network.host(client_host_name)
            connection = host.connect(f"{service_host_name}/{CONFIG_SERVICE_NAME}")
            try:
                payload = jser_loads(
                    connection.call(jser_dumps({"user": user, "service": service}))
                )
            finally:
                connection.close()
            return [MicroProtocolSpec.from_wire(item) for item in payload]

        return fetch


def dynamic_composite(name: str, source: ConfigSource, runtime=None) -> CompositeProtocol:
    """Create a composite whose constructor starts only rBoot (full dynamic).

    Micro-protocols loaded later by rControl bind like any others: dynamic
    reconfiguration invalidates and recompiles the per-event handler chains
    through the normal bind/unbind versioning.
    """
    composite = CompositeProtocol(name, runtime=runtime)
    composite.add_micro_protocol(RBoot(source))
    return composite
