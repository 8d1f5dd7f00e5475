"""HTTP object server: servants behind paths.

Objects mount at ``/objects/<object-id>``; an operation invocation is
``POST /objects/<object-id>/<operation>`` with a jser-encoded argument list
as the body (any other body is a :class:`MarshalError`).  Replies: 200
with a jser body for normal returns, 400-series with a jser-encoded
exception value for application exceptions (so IDL exceptions
round-trip), 500 with a ``{type, message}`` body otherwise.

Two servant flavours mirror the other platforms:

- typed (a :class:`~repro.idl.compiler.ServantSkeleton` dispatches and
  checks arguments and result against the IDL);
- generic (anything with ``invoke(method, arguments, context)`` — the CQoS
  skeleton path).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.http.message import format_response, parse_request
from repro.idl.compiler import CompiledIdl, IdlRemoteException, InterfaceDef, ServantSkeleton
from repro.net.transport import Network
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import BindError, MarshalError

SERVICE = "http"


class HttpObjectServer:
    """One HTTP endpoint serving many mounted objects."""

    def __init__(self, network: Network, host_name: str, compiled: CompiledIdl):
        self._network = network
        self.host_name = host_name
        self.compiled = compiled
        self._host = network.host(host_name)
        self._listener = None
        # object id -> (servant, its typed skeleton, or None for a generic servant)
        self._mounts: dict[str, tuple[Any, ServantSkeleton | None]] = {}
        self._lock = threading.Lock()

    @property
    def endpoint_address(self) -> str:
        return f"{self.host_name}/{SERVICE}"

    def start(self) -> "HttpObjectServer":
        if self._listener is None:
            self._listener = self._host.listen(SERVICE, self._handle_frame)
        return self

    def shutdown(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        with self._lock:
            self._mounts.clear()

    # -- mounting -----------------------------------------------------------

    def mount(self, object_id: str, servant: Any, interface: InterfaceDef) -> str:
        """Mount a typed servant; returns its URL path."""
        skeleton = ServantSkeleton(servant, interface)
        return self._mount(object_id, servant, skeleton)

    def mount_generic(self, object_id: str, servant: Any) -> str:
        """Mount a generic servant (``invoke(method, arguments, context)``)."""
        if not callable(getattr(servant, "invoke", None)):
            raise BindError("generic mounts must provide invoke(method, arguments, context)")
        return self._mount(object_id, servant, None)

    def _mount(self, object_id: str, servant: Any, skeleton: ServantSkeleton | None) -> str:
        with self._lock:
            if object_id in self._mounts:
                raise BindError(f"object id {object_id!r} already mounted")
            self._mounts[object_id] = (servant, skeleton)
        return f"/objects/{object_id}"

    def unmount(self, object_id: str) -> None:
        with self._lock:
            self._mounts.pop(object_id, None)

    # -- serving -------------------------------------------------------------

    # Servant dispatch can block (request.wait, replica forwarding).
    def _handle_frame(self, frame: bytes) -> bytes:
        try:
            method, path, _, context, body = parse_request(frame)
            return self._dispatch(method, path, context, body)
        except IdlRemoteException as exc:
            return format_response(
                400, jser_dumps(exc), {"x-cqos-kind": "application-exception"}
            )
        except BaseException as exc:  # noqa: BLE001 - mapped to 500
            return format_response(
                500, jser_dumps({"type": type(exc).__name__, "message": str(exc)})
            )

    def _dispatch(self, method: str, path: str, context: dict, body: bytes) -> bytes:
        if method != "POST":
            return format_response(400, jser_dumps({"type": "BadMethod", "message": method}))
        try:
            root, object_id, operation = path.strip("/").split("/")
        except ValueError:
            root = None
        if root != "objects":
            return format_response(404, jser_dumps({"type": "NotFound", "message": path}))
        # A dict read is atomic; only writers take the lock.
        mount = self._mounts.get(object_id)
        if mount is None:
            return format_response(404, jser_dumps({"type": "NotFound", "message": object_id}))
        servant, skeleton = mount
        arguments = jser_loads(body) if body else []
        if type(arguments) is not list:
            raise MarshalError(
                f"request body is not an argument list: {type(arguments).__name__}"
            )
        if skeleton is None:
            value = servant.invoke(operation, arguments, context)
        else:
            value = skeleton.dispatch(operation, arguments)
        return format_response(200, jser_dumps(value))
