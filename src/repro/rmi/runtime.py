"""RMI runtime: exporting remote objects, remote references, and stubs.

One :class:`RmiRuntime` per logical host serves all of that host's exported
objects from a single endpoint (the JVM model).  Two export flavours exist:

- :meth:`RmiRuntime.export` — a typed servant dispatched by interface
  metadata, the ordinary RMI remote object;
- :meth:`RmiRuntime.export_generic` — an object exposing only
  ``invoke(method, arguments, context)``.  This reproduces the paper's RMI
  CQoS skeleton, which "exports only a generic invoke method
  (``java.lang.Object invoke(java.lang.Object[])``)" to simulate CORBA's DSI.

Compared to the ORB, the client path is deliberately lighter (no run-time
conformance checking of arguments — the Java static-typing analog), which is
one reason the RMI rows of Table 1 show smaller absolute overheads.
"""

from __future__ import annotations

import threading
from typing import Any, Protocol, runtime_checkable

from repro.idl.compiler import CompiledIdl, IdlRemoteException, InterfaceDef
from repro.net.pool import ConnectionPool
from repro.net.transport import Connection, Network, ReplyFuture
from repro.rmi import jrmp
from repro.serialization.registry import global_registry
from repro.util.errors import (
    BindError,
    CommunicationError,
    InvocationError,
    rehydrate_system_error,
)
from repro.util.ids import IdGenerator


class RemoteRef:
    """A serializable reference to one exported remote object."""

    def __init__(self, interface_name: str, address: str, object_id: str):
        self.interface_name = interface_name
        self.address = address
        self.object_id = object_id

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RemoteRef)
            and self.interface_name == other.interface_name
            and self.address == other.address
            and self.object_id == other.object_id
        )

    def __hash__(self) -> int:
        return hash((self.interface_name, self.address, self.object_id))

    def __repr__(self) -> str:
        return f"RemoteRef({self.interface_name}, {self.address}, {self.object_id})"


# Remote references themselves cross the wire (the registry stores them).
global_registry.register("rmi.RemoteRef", RemoteRef)

GENERIC_INTERFACE = "rmi.Generic"


@runtime_checkable
class GenericRemoteObject(Protocol):
    """The shape of a generically exported object (the CQoS skeleton)."""

    def invoke(self, method: str, arguments: list, context: dict) -> Any: ...


class _Export:
    def __init__(self, servant, interface: InterfaceDef | None):
        self.servant = servant
        self.interface = interface  # None => generic export

    @property
    def is_generic(self) -> bool:
        return self.interface is None


class RmiRuntime:
    """One RMI-like runtime bound to one logical host of a network."""

    def __init__(
        self,
        network: Network,
        host_name: str,
        compiled: CompiledIdl,
        service: str = "rmi",
        registry_host: str = "rmi-registry",
    ):
        self._network = network
        self.host_name = host_name
        self.compiled = compiled
        self._service = service
        self.registry_host = registry_host
        self._host = network.host(host_name)
        self._listener = None
        self._exports: dict[str, _Export] = {}
        self._lock = threading.Lock()
        self._ids = IdGenerator()
        self._pool = ConnectionPool(self._host)

    # -- lifecycle ---------------------------------------------------------

    @property
    def endpoint_address(self) -> str:
        return f"{self.host_name}/{self._service}"

    def start(self) -> "RmiRuntime":
        if self._listener is None:
            self._listener = self._host.listen(self._service, self._handle_frame)
        return self

    def shutdown(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._pool.close()
        with self._lock:
            self._exports.clear()

    # -- export ------------------------------------------------------------

    def export(
        self, servant, interface: InterfaceDef, object_id: str | None = None
    ) -> RemoteRef:
        """Export a typed servant; returns its remote reference."""
        return self._export(servant, interface, object_id)

    def export_generic(self, servant, object_id: str | None = None) -> RemoteRef:
        """Export an object with a generic ``invoke`` method (CQoS skeleton)."""
        if not isinstance(servant, GenericRemoteObject):
            raise BindError("generic exports must provide invoke(method, arguments, context)")
        return self._export(servant, None, object_id)

    def _export(self, servant, interface: InterfaceDef | None, object_id: str | None) -> RemoteRef:
        if object_id is None:
            object_id = f"obj-{self._ids.next_int()}"
        with self._lock:
            if object_id in self._exports:
                raise BindError(f"object id {object_id!r} already exported")
            self._exports[object_id] = _Export(servant, interface)
        return RemoteRef(
            interface_name=interface.name if interface else GENERIC_INTERFACE,
            address=self.endpoint_address,
            object_id=object_id,
        )

    def unexport(self, ref: RemoteRef) -> None:
        with self._lock:
            self._exports.pop(ref.object_id, None)

    # -- client side --------------------------------------------------------

    def _connection(self, address: str) -> Connection:
        return self._pool.get(address)

    def drop_connection(self, address: str, connection: Connection | None = None) -> None:
        self._pool.drop(address, connection)

    def call(
        self,
        ref: RemoteRef,
        method: str,
        arguments: list,
        context: dict | None = None,
        oneway: bool = False,
        timeout: float | None = None,
    ) -> Any:
        """Invoke ``method`` on the remote object behind ``ref``."""
        frame = jrmp.encode_call(
            jrmp.CallMessage(
                object_id=ref.object_id,
                method=method,
                arguments=arguments,
                context=context or {},
                oneway=oneway,
            )
        )
        connection = self._connection(ref.address)
        try:
            reply_frame = connection.call(frame, timeout=timeout)
        except CommunicationError:
            self.drop_connection(ref.address, connection)
            raise
        return self._decode_return(reply_frame)

    def call_async(
        self,
        ref: RemoteRef,
        method: str,
        arguments: list,
        context: dict | None = None,
        timeout: float | None = None,
    ):
        """Non-blocking :meth:`call`; returns a ReplyFuture of the value.

        Encoded eagerly with the same encoder (wire bytes identical to the
        blocking path); JRMP decode runs lazily on the consumer's thread.
        Never raises — submit-time failures settle the future.
        """
        try:
            frame = jrmp.encode_call(
                jrmp.CallMessage(
                    object_id=ref.object_id,
                    method=method,
                    arguments=arguments,
                    context=context or {},
                    oneway=False,
                )
            )
            connection = self._connection(ref.address)
        except Exception as exc:  # noqa: BLE001 - delivered via the future
            return ReplyFuture.failed(exc)

        def on_error(exc: BaseException):
            if isinstance(exc, CommunicationError):
                self.drop_connection(ref.address, connection)
            raise exc

        return connection.call_async(frame, timeout=timeout).then(
            self._decode_return, on_error
        )

    def _decode_return(self, reply_frame: bytes) -> Any:
        """Decode a raw JRMP return frame; map the error taxonomy."""
        reply = jrmp.decode(reply_frame)
        if not isinstance(reply, jrmp.ReturnMessage):
            raise CommunicationError("expected a JRMP return message")
        if reply.system_error is not None:
            raise rehydrate_system_error(
                reply.system_error.get("type", "SystemError"),
                reply.system_error.get("message", ""),
            )
        if reply.exception is not None:
            raise reply.exception
        return reply.value

    # -- server side ----------------------------------------------------------

    # Servant dispatch can block (request.wait, replica forwarding).
    def _handle_frame(self, frame: bytes) -> bytes:
        message = jrmp.decode(frame)
        if not isinstance(message, jrmp.CallMessage):
            return jrmp.encode_return(
                jrmp.ReturnMessage(
                    system_error={"type": "BadMessage", "message": "expected a call"}
                )
            )
        if message.oneway:
            self._network.threads.spawn(lambda: self._dispatch(message))
            return jrmp.encode_return(jrmp.ReturnMessage(value=None))
        return jrmp.encode_return(self._dispatch(message))

    def _dispatch(self, message: jrmp.CallMessage) -> jrmp.ReturnMessage:
        try:
            with self._lock:
                export = self._exports.get(message.object_id)
            if export is None:
                raise BindError(f"no exported object {message.object_id!r}")
            if export.is_generic:
                value = export.servant.invoke(
                    message.method, message.arguments, message.context
                )
            else:
                operation = export.interface.operation(message.method)
                method = getattr(export.servant, message.method, None)
                if method is None:
                    raise InvocationError(
                        "NoSuchMethod", f"servant lacks method {message.method!r}"
                    )
                value = method(*message.arguments)
                if not operation.oneway:
                    operation.check_result(value, self.compiled)
            return jrmp.ReturnMessage(value=value)
        except IdlRemoteException as exc:
            return jrmp.ReturnMessage(exception=exc)
        except BaseException as exc:  # noqa: BLE001 - mapped to a system error
            return jrmp.ReturnMessage(
                system_error={"type": type(exc).__name__, "message": str(exc)}
            )


class RmiStub:
    """Base class for generated RMI stubs."""

    def __init__(self, runtime: RmiRuntime, ref: RemoteRef):
        self._runtime = runtime
        self._ref = ref

    @property
    def ref(self) -> RemoteRef:
        return self._ref


def _make_method(name: str, arity: int, oneway: bool):
    def method(self, *args):
        if len(args) != arity:
            raise TypeError(f"{name}() takes {arity} arguments, got {len(args)}")
        return self._runtime.call(self._ref, name, list(args), oneway=oneway)

    method.__name__ = name
    method.__doc__ = f"Remote method {name!r}."
    return method


def make_rmi_stub_class(interface: InterfaceDef) -> type:
    """Generate the RMI stub class for ``interface`` (``rmic`` analog)."""
    namespace: dict[str, Any] = {
        "__doc__": f"RMI stub for interface {interface.name}.",
        "__idl_interface__": interface,
    }
    for operation in interface.operations.values():
        namespace[operation.name] = _make_method(
            operation.name, len(operation.params), operation.oneway
        )
    return type(f"{interface.simple_name}Stub_RMI", (RmiStub,), namespace)
