"""Integration tests for the HTTP platform itself (no CQoS involved)."""

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.http import (
    HttpClient,
    HttpObjectServer,
    HttpRegistryClient,
    start_http_registry,
)
from repro.http.client import make_http_stub_class
from repro.http.message import (
    format_request,
    format_response,
    parse_request,
    parse_response,
)
from repro.net.memory import InMemoryNetwork
from repro.util.errors import InvocationError, MarshalError


class TestWireFormat:
    def test_request_roundtrip(self):
        frame = format_request("/objects/acct/deposit", body=b"\x00\x01binary")
        method, path, headers, piggyback, body = parse_request(frame)
        assert method == "POST"
        assert path == "/objects/acct/deposit"
        assert headers == {} and piggyback == {}
        assert body == b"\x00\x01binary"
        # A header that is nobody's piggyback reaches the headers dict.
        extra = frame.replace(b"\r\n", b"\r\nx-test: 1\r\n", 1)
        assert parse_request(extra)[2] == {"x-test": "1"}

    def test_response_roundtrip(self):
        assert parse_response(format_response(200, b"payload")) == (200, {}, b"payload")

    def test_piggyback_headers_roundtrip(self):
        piggyback = {"cqos_priority": 8, "cqos_client": "alice", "blob": b"\xff"}
        assert parse_request(format_request("/x", piggyback))[3] == piggyback

    def test_content_length_enforced(self):
        frame = format_request("/x", body=b"12345")
        with pytest.raises(MarshalError, match="content-length"):
            parse_request(frame[:-1])

    def test_malformed_request_line(self):
        with pytest.raises(MarshalError):
            parse_request(b"GARBAGE\r\ncontent-length: 0\r\n\r\n")

    def test_missing_terminator(self):
        with pytest.raises(MarshalError, match="terminator"):
            parse_request(b"POST /x HTTP/1.0\r\nfoo: bar")

    def test_header_line_without_colon(self):
        # The message quotes the offending line as the bytes received.
        with pytest.raises(MarshalError) as caught:
            parse_request(b"POST /x HTTP/1.0\r\nfoo: bar\r\nno-colon\xe9\r\n\r\n")
        assert str(caught.value) == "malformed HTTP header line: b'no-colon\\xe9'"

    def test_header_names_fold_and_values_strip(self):
        # content-length is checked against the body, not handed on.
        frame = b"POST /x HTTP/1.0\r\n X-Mixed : a:b\xa0\r\ncontent-length: 0\r\n\r\n"
        assert parse_request(frame)[2] == {"x-mixed": "a:b"}


@pytest.fixture
def http_world():
    net = InMemoryNetwork()
    compiled = bank_compiled()
    registry_server = HttpObjectServer(net, "http-registry", compiled).start()
    registry = start_http_registry(registry_server)
    server = HttpObjectServer(net, "server", compiled).start()
    client = HttpClient(net, "client")
    registry_client = HttpRegistryClient(client)
    yield net, server, client, registry_client
    client.close()
    server.shutdown()
    registry_server.shutdown()
    net.close()


class TestObjectServer:
    def test_typed_mount_and_stub(self, http_world):
        _, server, client, _ = http_world
        server.mount("acct", BankAccount(balance=4.0), bank_interface())
        stub = make_http_stub_class(bank_interface())(client, server.endpoint_address, "acct")
        assert stub.get_balance() == 4.0
        assert stub.deposit(1.0) == 5.0

    def test_application_exception(self, http_world):
        _, server, client, _ = http_world
        server.mount("acct", BankAccount(), bank_interface())
        stub = make_http_stub_class(bank_interface())(client, server.endpoint_address, "acct")
        with pytest.raises(bank_compiled().exceptions["bank::InsufficientFunds"]):
            stub.withdraw(1.0)

    def test_unknown_object_404(self, http_world):
        _, server, client, _ = http_world
        with pytest.raises(InvocationError, match="NotFound"):
            client.post(server.endpoint_address, "ghost", "op", [])

    def test_unknown_operation_500(self, http_world):
        _, server, client, _ = http_world
        server.mount("acct", BankAccount(), bank_interface())
        with pytest.raises(InvocationError):
            client.post(server.endpoint_address, "acct", "no_such_op", [])

    def test_generic_mount_sees_context(self, http_world):
        _, server, client, _ = http_world

        class Generic:
            def invoke(self, method, arguments, context):
                return {"m": method, "a": arguments, "c": context}

        server.mount_generic("gen", Generic())
        out = client.post(
            server.endpoint_address, "gen", "whatever", [1], piggyback={"p": 2}
        )
        assert out == {"m": "whatever", "a": [1], "c": {"p": 2}}

    def test_duplicate_mount_rejected(self, http_world):
        _, server, _, _ = http_world
        server.mount("acct", BankAccount(), bank_interface())
        from repro.util.errors import BindError

        with pytest.raises(BindError):
            server.mount("acct", BankAccount(), bank_interface())


class TestHttpRegistry:
    def test_bind_lookup_list(self, http_world):
        _, server, _, registry = http_world
        registry.bind("acct/replica-1", server.endpoint_address, "acct")
        assert registry.lookup("acct/replica-1") == (server.endpoint_address, "acct")
        assert registry.list("acct/") == ["acct/replica-1"]
        registry.unbind("acct/replica-1")
        with pytest.raises(InvocationError):
            registry.lookup("acct/replica-1")

    def test_double_bind(self, http_world):
        _, server, _, registry = http_world
        registry.bind("n", server.endpoint_address, "a")
        with pytest.raises(InvocationError):
            registry.bind("n", server.endpoint_address, "a")
        registry.rebind("n", server.endpoint_address, "b")
        assert registry.lookup("n")[1] == "b"
