"""The CQoS stub: the client-side interceptor (platform-independent core).

"Client side interception is based on replacing the conventional stub used
by middleware platforms … by the CQoS stub.  When the client invokes a
method on this stub, it creates a request object and notifies the Cactus
client.  The stub then stores the pending requests until the call has been
completed."  (paper, section 2.2)  Here the calling thread's frame is that
store: it holds the request until the Cactus client completes it.

:func:`make_cqos_stub_class` generates a stub class from interface metadata
with exactly the original stub's application interface (one method per
operation), so a client is recompiled against it without source changes.

Pass-through mode (``cactus_client=None``) sends the abstract request
straight through the platform adapter to server 1.  That is Table 1's
"+CQoS stub" rung: interception and request conversion are paid, the Cactus
client is not.
"""

from __future__ import annotations

from typing import Any

from repro.core.client import CactusClient
from repro.core.interfaces import ClientPlatform
from repro.core.platform import InvocationObserver, ObserverSite, notify_observers
from repro.core.request import PB_CLIENT_ID, PB_PRIORITY, PB_REQUEST_ID, Request
from repro.idl.compiler import InterfaceDef
from repro.util.ids import unique_id


class CqosStub(ObserverSite):
    """Base class for generated CQoS stubs."""

    def __init__(
        self,
        platform: ClientPlatform,
        object_id: str,
        cactus_client: CactusClient | None = None,
        client_id: str | None = None,
        priority: int | None = None,
        observers: list[InvocationObserver] | None = None,
    ):
        ObserverSite.__init__(self, observers)
        self._platform = platform
        self._object_id = object_id
        self._cactus_client = cactus_client
        self._client_id = client_id or unique_id("client")
        self._priority = priority

    @property
    def client_id(self) -> str:
        return self._client_id

    @property
    def cactus_client(self) -> CactusClient | None:
        return self._cactus_client

    def _make_request(self, operation: str, args: tuple) -> Request:
        piggyback: dict[str, Any] = {PB_CLIENT_ID: self._client_id}
        if self._priority is not None:
            piggyback[PB_PRIORITY] = self._priority
        request = Request(
            object_id=self._object_id,
            operation=operation,
            params=args,
            piggyback=piggyback,
        )
        # The id must travel: every replica's skeleton rebuilds the abstract
        # request under the *same* identity, or ordering announcements and
        # duplicate suppression could never correlate across replicas.
        request.piggyback[PB_REQUEST_ID] = request.request_id
        return request

    def _invoke_operation(self, operation: str, args: tuple) -> Any:
        request = self._make_request(operation, args)
        # Read once: an observer added while this call is in flight sees
        # neither of its hooks, never half an invocation.
        hooks = self._hooks
        if hooks.on_stub_request:
            notify_observers(hooks.on_stub_request, request)
        error: BaseException | None = None
        try:
            if self._cactus_client is not None:
                return self._cactus_client.cactus_request(request)
            # Pass-through: convert and send without QoS processing.
            request.server = 1
            self._platform.bind(1)
            return self._platform.invoke_server(1, request)
        except BaseException as exc:
            error = exc
            raise
        finally:
            if hooks.on_stub_complete:
                notify_observers(hooks.on_stub_complete, request, error)


def _make_method(operation_name: str, arity: int):
    def method(self, *args):
        if len(args) != arity:
            raise TypeError(
                f"{operation_name}() takes {arity} arguments, got {len(args)}"
            )
        return self._invoke_operation(operation_name, args)

    method.__name__ = operation_name
    method.__doc__ = f"CQoS-intercepted operation {operation_name!r}."
    return method


def make_cqos_stub_class(interface: InterfaceDef) -> type:
    """Generate a CQoS stub class for ``interface``.

    The application interface is identical to the original stub: one method
    per server-object operation (including attribute accessors).
    """
    namespace: dict[str, Any] = {
        "__doc__": f"CQoS stub for IDL interface {interface.name}.",
        "__idl_interface__": interface,
    }
    for operation in interface.operations.values():
        namespace[operation.name] = _make_method(operation.name, len(operation.params))
    return type(f"{interface.simple_name}CqosStub", (CqosStub,), namespace)
