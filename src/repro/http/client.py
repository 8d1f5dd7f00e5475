"""HTTP client for object invocations."""

from __future__ import annotations

from typing import Any

from repro.http.message import format_request, parse_response
from repro.net.pool import ConnectionPool
from repro.net.transport import Connection, Network, ReplyFuture
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import CommunicationError, InvocationError, rehydrate_system_error


class HttpClient:
    """Invoke operations on objects served by :class:`HttpObjectServer`.

    Connections are pooled per endpoint address (bounded LRU) and re-opened
    on failure.
    """

    def __init__(self, network: Network, host_name: str):
        self._network = network
        self.host_name = host_name
        self._host = network.host(host_name)
        self._pool = ConnectionPool(self._host)

    def drop_connection(self, address: str, connection: Connection | None = None) -> None:
        self._pool.drop(address, connection)

    def post(
        self,
        address: str,
        object_id: str,
        operation: str,
        arguments: list,
        piggyback: dict | None = None,
        timeout: float | None = None,
    ) -> Any:
        """``POST /objects/<id>/<operation>``; return the decoded reply.

        Application exceptions (400 + marshalled exception) re-raise as the
        original exception instance; other failures raise
        :class:`InvocationError`.
        """
        frame = format_request(
            f"/objects/{object_id}/{operation}", piggyback, jser_dumps(arguments)
        )
        connection = self._pool.get(address)
        try:
            frame = connection.call(frame, timeout=timeout)
        except CommunicationError:
            self.drop_connection(address, connection)
            raise
        return self._decode_response(frame)

    def post_async(
        self,
        address: str,
        object_id: str,
        operation: str,
        arguments: list,
        piggyback: dict | None = None,
        timeout: float | None = None,
    ):
        """Non-blocking :meth:`post`; returns a ReplyFuture of the value.

        Formatted eagerly by the same formatter (wire bytes identical to
        the blocking path); response parsing runs lazily on
        the consumer's thread.  Never raises — submit-time failures settle
        the future.
        """
        try:
            frame = format_request(
                f"/objects/{object_id}/{operation}", piggyback, jser_dumps(arguments)
            )
            connection = self._pool.get(address)
        except Exception as exc:  # noqa: BLE001 - delivered via the future
            return ReplyFuture.failed(exc)

        def on_error(exc: BaseException):
            if isinstance(exc, CommunicationError):
                self.drop_connection(address, connection)
            raise exc

        return connection.call_async(frame, timeout=timeout).then(
            self._decode_response, on_error
        )

    def _decode_response(self, frame: bytes) -> Any:
        """Parse a raw HTTP response frame; map the error taxonomy."""
        status, _, body = parse_response(frame)
        value = jser_loads(body) if body else None
        if status == 200:
            return value
        if isinstance(value, BaseException):
            raise value
        if isinstance(value, dict):
            raise rehydrate_system_error(
                value.get("type", "HttpError"), value.get("message", "")
            )
        raise InvocationError("HttpError", f"status {status}")

    def close(self) -> None:
        self._pool.close()


class HttpStub:
    """Base class for generated plain HTTP stubs (no CQoS)."""

    def __init__(self, client: HttpClient, address: str, object_id: str):
        self._client = client
        self._address = address
        self._object_id = object_id


def _make_method(name: str, arity: int):
    def method(self, *args):
        if len(args) != arity:
            raise TypeError(f"{name}() takes {arity} arguments, got {len(args)}")
        return self._client.post(self._address, self._object_id, name, list(args))

    method.__name__ = name
    method.__doc__ = f"HTTP-mapped operation {name!r}."
    return method


def make_http_stub_class(interface) -> type:
    """Generate a typed HTTP stub class for an IDL interface."""
    namespace = {
        "__doc__": f"HTTP stub for interface {interface.name}.",
        "__idl_interface__": interface,
    }
    for operation in interface.operations.values():
        namespace[operation.name] = _make_method(operation.name, len(operation.params))
    return type(f"{interface.simple_name}HttpStub", (HttpStub,), namespace)
