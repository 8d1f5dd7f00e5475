"""Unit tests for CQoS core pieces against in-memory fake platforms.

These avoid the middleware substrates entirely: a fake ClientPlatform /
ServerPlatform lets each core behaviour (stub bookkeeping, skeleton control
routing, Cactus client/server blocking semantics) be tested in isolation.
"""

import pytest

from repro.core.client import CactusClient
from repro.core.events import EV_NEW_REQUEST
from repro.core.interfaces import ClientPlatform, ServerPlatform
from repro.core.request import PB_CLIENT_ID, PB_PRIORITY, PB_REQUEST_ID, Request
from repro.core.server import CactusServer
from repro.core.platform import CONTROL_OPERATION
from repro.core.skeleton import CqosSkeleton
from repro.core.stub import make_cqos_stub_class
from repro.idl.compiler import compile_idl
from repro.qos.extensions import LoadBalance
from repro.serialization.registry import TypeRegistry
from repro.util.errors import BindError, CommunicationError, ConfigurationError

IDL = """
interface Echo {
  any echo(in any value);
  void poke();
};
"""


class FakeClientPlatform(ClientPlatform):
    """Answers invocations locally; scriptable failures."""

    def __init__(self, servers: int = 1):
        self.servers = servers
        self.bound: list[int] = []
        self.invocations: list[tuple[int, str, list]] = []
        self.fail_servers: set[int] = set()

    def num_servers(self) -> int:
        return self.servers

    def bind(self, server: int) -> None:
        self.bound.append(server)

    def server_status(self, server: int) -> bool:
        return True

    def invoke_server(self, server: int, request: Request):
        self.invocations.append((server, request.operation, list(request.get_params())))
        if server in self.fail_servers:
            raise CommunicationError(f"server {server} scripted to fail")
        if request.operation == "echo":
            return request.get_params()[0]
        return None


class FakeServerPlatform(ServerPlatform):
    def __init__(self):
        self.invoked: list[Request] = []
        self.peer_messages: list[tuple[int, str, dict]] = []

    def invoke_servant(self, request: Request):
        self.invoked.append(request)
        if request.operation == "echo":
            return request.get_params()[0]
        return None

    def my_replica(self) -> int:
        return 1

    def num_replicas(self) -> int:
        return 3

    def peer_invoke(self, replica: int, kind: str, payload: dict):
        self.peer_messages.append((replica, kind, payload))
        return True

    def peer_status(self, replica: int) -> bool:
        return True


@pytest.fixture
def echo_interface():
    return compile_idl(IDL, TypeRegistry()).interface("Echo")


class TestCqosStub:
    def test_generated_interface(self, echo_interface):
        stub_class = make_cqos_stub_class(echo_interface)
        stub = stub_class(FakeClientPlatform(), "obj")
        assert callable(stub.echo) and callable(stub.poke)

    def test_passthrough_invocation(self, echo_interface):
        platform = FakeClientPlatform()
        stub = make_cqos_stub_class(echo_interface)(platform, "obj")
        assert stub.echo("hello") == "hello"
        server, operation, params = platform.invocations[0]
        assert (server, operation, params) == (1, "echo", ["hello"])
        assert platform.bound == [1]  # bound at first request

    def test_piggyback_identity_and_priority(self, echo_interface):
        platform = FakeClientPlatform()
        stub = make_cqos_stub_class(echo_interface)(
            platform, "obj", client_id="alice", priority=8
        )
        stub.poke()
        # Inspect what crossed the platform: rebuild from the invocation.
        client = CactusClient.with_base(platform)
        request = stub._make_request("poke", ())
        assert request.piggyback[PB_CLIENT_ID] == "alice"
        assert request.piggyback[PB_PRIORITY] == 8
        assert request.piggyback[PB_REQUEST_ID] == request.request_id
        client.shutdown()
        client.runtime.shutdown()

    def test_arity_enforced(self, echo_interface):
        stub = make_cqos_stub_class(echo_interface)(FakeClientPlatform(), "obj")
        with pytest.raises(TypeError):
            stub.echo()
        with pytest.raises(TypeError):
            stub.poke(1)

    def test_with_cactus_client(self, echo_interface):
        platform = FakeClientPlatform()
        client = CactusClient.with_base(platform)
        try:
            stub = make_cqos_stub_class(echo_interface)(
                platform, "obj", cactus_client=client
            )
            assert stub.echo(42) == 42
        finally:
            client.shutdown()
            client.runtime.shutdown()


class TestCactusClient:
    def test_blocking_request(self):
        platform = FakeClientPlatform()
        client = CactusClient.with_base(platform)
        try:
            request = Request("obj", "echo", ["x"])
            assert client.cactus_request(request) == "x"
            assert request.completed
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_failure_propagates(self):
        platform = FakeClientPlatform()
        platform.fail_servers.add(1)
        client = CactusClient.with_base(platform, request_timeout=5.0)
        try:
            with pytest.raises(CommunicationError):
                client.cactus_request(Request("obj", "poke", []))
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_unwinding_handler_exception_fails_the_request(self):
        """A ``BindError`` out of ``platform.bind()`` is neither a
        communication nor an invocation error, so ``sync_invoker`` lets it
        unwind the chain: the request must still be failed, or its release
        hooks never run (``LoadBalance._outstanding`` grew for ever)."""

        class UnboundPlatform(FakeClientPlatform):
            def bind(self, server: int) -> None:
                raise BindError(f"no naming entry for replica {server}")

        balance = LoadBalance(seed=1)
        client = CactusClient.with_base(UnboundPlatform(), [balance], request_timeout=5.0)
        try:
            request = Request("obj", "echo", ["x"])
            fired = []
            request.on_complete(fired.append)
            with pytest.raises(BindError):
                client.cactus_request(request)
            assert fired == [request]
            assert request.completed
            with pytest.raises(BindError):
                request.wait(0)
            assert balance.outstanding() == {1: 0}
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_async_request(self):
        platform = FakeClientPlatform()
        client = CactusClient.with_base(platform)
        try:
            request = Request("obj", "echo", [7])
            client.raise_event(EV_NEW_REQUEST, request, mode="async")
            assert request.wait(5.0) == 7
        finally:
            client.shutdown()
            client.runtime.shutdown()


class TestCactusServer:
    def test_blocking_invoke(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform)
        try:
            assert server.cactus_invoke(Request("obj", "echo", ["v"])) == "v"
            assert len(platform.invoked) == 1
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_priority_policy_applied(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform, priority_policy=lambda r: 9)
        try:
            request = Request("obj", "poke", [])
            server.cactus_invoke(request)
            assert request.priority == 9
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_unhandled_control_kind_rejected(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform)
        try:
            with pytest.raises(ConfigurationError, match="configuration mismatch"):
                server.handle_control("mystery", {}, sender=2)
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_control_routed_to_event(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform)
        try:
            seen = []

            def handler(occurrence):
                message = occurrence.args[0]
                seen.append((message.kind, message.sender, dict(message.payload)))
                message.respond("ack")

            server.bind("control:custom", handler)
            reply = server.handle_control("custom", {"k": 1}, sender=3)
            assert reply == "ack"
            assert seen == [("custom", 3, {"k": 1})]
        finally:
            server.shutdown()
            server.runtime.shutdown()


class TestCqosSkeleton:
    def test_passthrough(self):
        platform = FakeServerPlatform()
        skeleton = CqosSkeleton("obj", platform, cactus_server=None)
        assert skeleton.handle_invocation("echo", ["z"], {}) == "z"

    def test_request_identity_preserved(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform)
        try:
            skeleton = CqosSkeleton("obj", platform, cactus_server=server)
            skeleton.handle_invocation("poke", [], {PB_REQUEST_ID: "client-id-1"})
            assert platform.invoked[0].request_id == "client-id-1"
        finally:
            server.shutdown()
            server.runtime.shutdown()

    def test_control_ping_without_cactus(self):
        skeleton = CqosSkeleton("obj", FakeServerPlatform(), cactus_server=None)
        assert skeleton.handle_invocation(CONTROL_OPERATION, ["ping", 0, {}], {}) is True

    def test_non_ping_control_without_cactus_rejected(self):
        skeleton = CqosSkeleton("obj", FakeServerPlatform(), cactus_server=None)
        with pytest.raises(ConfigurationError):
            skeleton.handle_invocation(CONTROL_OPERATION, ["order", 1, {}], {})
