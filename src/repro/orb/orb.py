"""The ORB core: endpoint, request dispatch, and client-side invocation.

One :class:`Orb` per logical host serves every POA of that host from a
single transport listener (CORBA's one-endpoint-per-ORB model); the object
key inside each GIOP request routes to ``poa_name|object_id``.

Server-side dispatch:

- static servants go through their
  :class:`~repro.idl.compiler.ServantSkeleton`; typed (compiled-stub)
  requests marshal through the operation's
  :class:`~repro.serialization.compiled.SignaturePlan` pair;
- DSI servants get a :class:`~repro.orb.dsi.ServerRequest` via ``invoke()``;
- IDL-declared exceptions travel back as USER_EXCEPTION replies carrying
  the exception value; everything else becomes a SYSTEM_EXCEPTION with the
  exception type name and message.

Oneway requests are acknowledged at the transport level immediately and
dispatched on a detached thread, so the caller never blocks on servant
execution — the CORBA ``oneway`` contract.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.idl.compiler import CompiledIdl, IdlRemoteException, OperationDef
from repro.net.pool import ConnectionPool
from repro.net.transport import Connection, Network, ReplyFuture
from repro.orb import giop
from repro.orb.dii import DiiRequest
from repro.orb.dsi import ServerRequest
from repro.orb.ior import IOR, ior_to_string, repository_id, string_to_ior
from repro.orb.poa import Poa
from repro.serialization.compiled import SignaturePlan
from repro.util.errors import (
    BindError,
    CommunicationError,
    InvocationError,
    ReproError,
    rehydrate_system_error,
)

#: GIOP carries the request id as an unsigned long; the ORB's counter wraps
#: to fit.  Replies are correlated by the transport's own 64-bit id.
_REQUEST_ID_MASK = 0xFFFFFFFF


def _plans(operation: OperationDef, compiled: CompiledIdl) -> tuple[SignaturePlan, SignaturePlan]:
    """``(argument_plan, result_plan)`` of ``operation``: its typed CDR
    marshalling, compiled on first use and kept on the operation."""
    plans = operation.plans
    if plans is None:
        plans = operation.plans = (
            SignaturePlan([param.type for param in operation.params], compiled),
            SignaturePlan([operation.return_type], compiled),
        )
    return plans


class ObjectRef:
    """A client-side reference to a remote CORBA object."""

    def __init__(self, orb: "Orb", ior: IOR):
        self._orb = orb
        self.ior = ior

    def _create_request(self, operation: str) -> DiiRequest:
        """DII entry point: build a dynamic request on this reference."""
        return DiiRequest(self, operation)

    def invoke_op(self, operation: str, arguments: list, context: dict | None = None) -> Any:
        """Convenience synchronous invocation without a generated stub."""
        return self._orb.invoke(self.ior, operation, arguments, context or {})

    def invoke_op_async(self, operation: str, arguments: list, context: dict | None = None):
        """Non-blocking :meth:`invoke_op`; returns a ReplyFuture."""
        return self._orb.invoke_async(self.ior, operation, arguments, context or {})

    def __repr__(self) -> str:
        return f"ObjectRef({self.ior.type_id}, {self.ior.address}, {self.ior.object_key})"


class Orb:
    """One CORBA-like ORB bound to one logical host of a network."""

    def __init__(
        self,
        network: Network,
        host_name: str,
        compiled: CompiledIdl,
        service: str = "giop",
        naming_host: str = "naming",
    ):
        self._network = network
        self.host_name = host_name
        self.compiled = compiled
        #: Repository id -> interface metadata, for the DII's conformance
        #: check: an index over ``compiled``, which does not change.
        self.interfaces_by_id = {
            repository_id(interface.name): interface
            for interface in compiled.interfaces.values()
        }
        self._service = service
        self._naming_host = naming_host
        self._host = network.host(host_name)
        self._listener = None
        self._poas: dict[str, Poa] = {}
        self._poa_lock = threading.Lock()
        self._request_ids = itertools.count(1)
        self._pool = ConnectionPool(self._host)
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def endpoint_address(self) -> str:
        return f"{self.host_name}/{self._service}"

    def start(self) -> "Orb":
        """Open the server endpoint.  Client-only ORBs may skip this."""
        if not self._started:
            self._listener = self._host.listen(self._service, self._handle_frame)
            self._started = True
        return self

    def shutdown(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        self._started = False
        self._pool.close()
        with self._poa_lock:
            self._poas.clear()

    # -- POA management ------------------------------------------------------

    def create_poa(self, name: str) -> Poa:
        with self._poa_lock:
            if name in self._poas:
                raise ReproError(f"POA {name!r} already exists")
            poa = Poa(self, name)
            self._poas[name] = poa
            return poa

    def find_poa(self, name: str) -> Poa | None:
        # A dict read is atomic; only writers take the lock.
        return self._poas.get(name)

    def _drop_poa(self, name: str) -> None:
        with self._poa_lock:
            self._poas.pop(name, None)

    # -- references ----------------------------------------------------------

    def object_to_string(self, ref: ObjectRef | IOR) -> str:
        ior = ref.ior if isinstance(ref, ObjectRef) else ref
        return ior_to_string(ior)

    def string_to_object(self, text: str) -> ObjectRef:
        return ObjectRef(self, string_to_ior(text))

    def resolve_initial_references(self, name: str) -> ObjectRef:
        """Bootstrap references; only ``"NameService"`` is defined."""
        if name != "NameService":
            raise BindError(f"unknown initial reference {name!r}")
        from repro.orb.naming import naming_service_ior

        return ObjectRef(self, naming_service_ior(self._naming_host, self._service))

    # -- client side -----------------------------------------------------------

    def drop_connection(self, address: str, connection: Connection | None = None) -> None:
        """Forget a pooled connection (e.g. after a peer crash).

        Passing the failed ``connection`` evicts only that instance — a
        replacement another caller already pooled survives (see
        :meth:`repro.net.pool.ConnectionPool.drop`).
        """
        self._pool.drop(address, connection)

    def invoke(
        self,
        ior: IOR,
        operation: str,
        arguments: list,
        context: dict,
        response_expected: bool = True,
        timeout: float | None = None,
    ) -> Any:
        """Send one GIOP request (dynamic, any-tagged) and decode the reply.

        Raises the remote user exception instance for USER_EXCEPTION
        replies, :class:`InvocationError` for SYSTEM_EXCEPTION replies, and
        :class:`CommunicationError` subtypes for transport failures.
        """
        request = giop.RequestMessage(
            next(self._request_ids) & _REQUEST_ID_MASK,
            ior.object_key, operation, arguments, context, response_expected,
        )
        return self._exchange(ior, request, timeout).body

    def invoke_async(
        self,
        ior: IOR,
        operation: str,
        arguments: list,
        context: dict,
        response_expected: bool = True,
        timeout: float | None = None,
    ):
        """Non-blocking :meth:`invoke`: returns a ReplyFuture of the value.

        The request is encoded eagerly with the same encoder (the wire
        bytes are identical to the blocking path) and submitted without
        waiting; GIOP decode and exception-status mapping run lazily on the
        consumer's thread at ``result()`` time.  Never raises — submit-time
        failures settle the future.
        """
        request = giop.RequestMessage(
            next(self._request_ids) & _REQUEST_ID_MASK,
            ior.object_key, operation, arguments, context, response_expected,
        )
        try:
            frame = giop.encode_request(request)
            connection = self._pool.get(ior.address)
        except Exception as exc:  # noqa: BLE001 - delivered via the future
            return ReplyFuture.failed(exc)

        def on_error(exc: BaseException):
            if isinstance(exc, CommunicationError):
                self.drop_connection(ior.address, connection)
            raise exc

        def decode(reply_frame: bytes):
            return self._decode_reply(reply_frame).body

        return connection.call_async(frame, timeout=timeout).then(decode, on_error)

    def invoke_typed(
        self,
        ior: IOR,
        operation_def,
        arguments: list,
        response_expected: bool = True,
        timeout: float | None = None,
    ) -> Any:
        """Compiled-stub invocation: untagged typed CDR both ways.

        ``operation_def`` is the :class:`~repro.idl.compiler.OperationDef`
        the stub was generated from; both ends marshal against it.
        """
        argument_plan, result_plan = _plans(operation_def, self.compiled)
        request = giop.RequestMessage(
            next(self._request_ids) & _REQUEST_ID_MASK,
            ior.object_key, operation_def.name, [], {}, response_expected,
            argument_plan.marshal(arguments),
        )
        reply = self._exchange(ior, request, timeout)
        if reply.typed_body is not None:
            return result_plan.unmarshal(reply.typed_body)[0]
        return reply.body

    def _exchange(
        self, ior: IOR, request: giop.RequestMessage, timeout: float | None
    ) -> giop.ReplyMessage:
        """Send a request, decode the reply, map exception statuses."""
        frame = giop.encode_request(request)
        connection = self._pool.get(ior.address)
        try:
            reply_frame = connection.call(frame, timeout=timeout)
        except CommunicationError:
            self.drop_connection(ior.address, connection)
            raise
        return self._decode_reply(reply_frame)

    def _decode_reply(self, reply_frame: bytes) -> giop.ReplyMessage:
        """Decode a raw reply frame; map GIOP exception statuses."""
        reply = giop.decode_message(reply_frame)
        if type(reply) is not giop.ReplyMessage:
            raise CommunicationError("expected a GIOP reply message")
        if reply.status == giop.REPLY_NO_EXCEPTION:
            return reply
        if reply.status == giop.REPLY_USER_EXCEPTION:
            if isinstance(reply.body, BaseException):
                raise reply.body
            raise InvocationError("UserException", repr(reply.body))
        body = reply.body if isinstance(reply.body, dict) else {}
        raise rehydrate_system_error(
            body.get("type", "SystemException"), body.get("message", "")
        )

    # -- server side -------------------------------------------------------------

    # Servant dispatch can block (request.wait, replica forwarding).
    def _handle_frame(self, frame: bytes) -> bytes:
        message = giop.decode_message(frame)
        if type(message) is not giop.RequestMessage:
            return giop.encode_reply(
                giop.ReplyMessage(
                    0,
                    giop.REPLY_SYSTEM_EXCEPTION,
                    {"type": "BadMessage", "message": "expected a request"},
                )
            )
        if not message.response_expected:
            # Oneway: acknowledge at transport level, dispatch detached.
            self._network.threads.spawn(lambda: self._dispatch(message))
            return giop.encode_reply(
                giop.ReplyMessage(message.request_id, giop.REPLY_NO_EXCEPTION)
            )
        return giop.encode_reply(self._dispatch(message))

    def _dispatch(self, message: giop.RequestMessage) -> giop.ReplyMessage:
        try:
            if message.typed_body is not None:
                return self._dispatch_typed(message)
            return giop.ReplyMessage(
                message.request_id, giop.REPLY_NO_EXCEPTION, self._dispatch_to_servant(message)
            )
        except IdlRemoteException as exc:
            return giop.ReplyMessage(message.request_id, giop.REPLY_USER_EXCEPTION, exc)
        except BaseException as exc:  # noqa: BLE001 - mapped to a system exception
            return giop.ReplyMessage(
                message.request_id,
                giop.REPLY_SYSTEM_EXCEPTION,
                {"type": type(exc).__name__, "message": str(exc)},
            )

    def _dispatch_typed(self, message: giop.RequestMessage) -> giop.ReplyMessage:
        """Compiled-skeleton dispatch: typed bodies need interface metadata,
        so only static activations accept them (DSI servants cannot know the
        types — exactly real CORBA's constraint)."""
        activation = self._find_activation(message.object_key)
        if activation.skeleton is None:
            raise InvocationError(
                "BadRequest", "typed request sent to a dynamic (DSI) servant"
            )
        operation = activation.skeleton.interface.operation(message.operation)
        argument_plan, result_plan = _plans(operation, self.compiled)
        result = activation.skeleton.dispatch(
            message.operation, argument_plan.unmarshal(message.typed_body)
        )
        return giop.ReplyMessage(
            message.request_id, giop.REPLY_NO_EXCEPTION, None, result_plan.marshal([result])
        )

    def _find_activation(self, object_key: str):
        poa_name, _, object_id = object_key.partition("|")
        poa = self._poas.get(poa_name)
        if poa is None:
            raise BindError(f"no POA {poa_name!r} on host {self.host_name}")
        activation = poa.lookup(object_id)
        if activation is None:
            raise BindError(f"no object {object_id!r} in POA {poa_name!r}")
        return activation

    def _dispatch_to_servant(self, message: giop.RequestMessage) -> Any:
        activation = self._find_activation(message.object_key)
        if activation.skeleton is None:
            server_request = ServerRequest(
                message.operation, message.arguments, message.context
            )
            activation.servant.invoke(server_request)
            if server_request._exception is not None:
                raise server_request._exception
            if server_request._result is ServerRequest._UNSET:
                raise InvocationError(
                    "IncompleteRequest",
                    f"DSI servant did not complete {message.operation!r}",
                )
            return server_request._result
        return activation.skeleton.dispatch(message.operation, message.arguments)
