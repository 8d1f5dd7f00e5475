"""Base micro-protocols: ClientBase and ServerBase (paper section 3.1).

"Note that the basic behavior is broken into multiple handlers with events
used to pass the control from one handler to another.  This allows the
actual QoS micro-protocols to insert their processing at the appropriate
points of the control flow.  All the handlers in the base micro-protocols
have been ordered to be the last ones to be executed when its respective
event is raised."

ClientBase handlers:

- **assigner** (``newRequest``, last) — assigns a server and raises
  ``readyToSend``;
- **syncInvoker** (``readyToSend``, last) — checks ``server_status()``,
  ``bind()``s if necessary, calls ``invoke_server()``, raises
  ``invokeSuccess`` or ``invokeFailure``;
- **resultReturner** (``invokeSuccess``+``invokeFailure``, last) — default
  acceptance: the first reply (success or failure) releases the waiting
  client thread.

ServerBase handlers:

- **getParameters** (``newServerRequest``, last) — extracts Cactus
  parameters (notably the request priority, resolved through the
  configured policy) and raises ``readyToInvoke``;
- **invokeServant** (``readyToInvoke``, last) — calls
  ``invoke_servant()``, raises ``invokeReturn``, then completes the
  request (releasing the dispatch thread so the reply can be sent).
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_LAST, Occurrence
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_RETURN,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_INVOKE,
    EV_READY_TO_SEND,
)
from repro.core.client import SHARED_FAILED_SERVERS, SHARED_PLATFORM
from repro.core.interfaces import ClientPlatform, ServerPlatform
from repro.core.request import PB_PRIORITY, Reply, Request
from repro.core.server import SHARED_PRIORITY_POLICY
from repro.idl.compiler import IdlRemoteException
from repro.util.errors import CommunicationError, InvocationError, ServerFailedError

#: Attribute key where invokeServant stages a servant-raised exception so
#: invokeReturn handlers still run before the request fails.
ATTR_SERVANT_EXCEPTION = "servant_exception"


@register_micro_protocol("ClientBase")
class ClientBase(MicroProtocol):
    """The default client-side pipeline (see module docstring)."""

    name = "ClientBase"

    def start(self) -> None:
        # Resolved once: the composite sets both before it configures, the
        # failed set is only ever mutated in place, and events are never
        # removed from a composite.
        composite = self.composite
        self._platform: ClientPlatform = composite.shared.get(SHARED_PLATFORM)
        self._failed: set = composite.shared.get(SHARED_FAILED_SERVERS)
        self._ready_to_send = composite.event(EV_READY_TO_SEND)
        self._invoke_success = composite.event(EV_INVOKE_SUCCESS)
        self._invoke_failure = composite.event(EV_INVOKE_FAILURE)
        self.bind(EV_NEW_REQUEST, self.assigner, order=ORDER_LAST)
        self.bind(EV_READY_TO_SEND, self.sync_invoker, order=ORDER_LAST)
        self.bind(EV_INVOKE_SUCCESS, self.result_returner, order=ORDER_LAST)
        self.bind(EV_INVOKE_FAILURE, self.result_returner, order=ORDER_LAST)

    # -- handlers -----------------------------------------------------------

    def assigner(self, occurrence: Occurrence) -> None:
        """Assign the first non-failed server (server 1 in the simple case).

        "Failed" is the union of this client's own observations (the shared
        failed set) and the platform directory's knowledge — which, on a
        sharded deployment, includes the failed members the adopted
        directory view carries, so a membership change steers even plain
        base clients away from a dead replica before the first timeout.
        """
        request: Request = occurrence.args[0]
        platform = self._platform
        failed = self._failed
        candidates = platform.server_ids()
        server = candidates[0] if candidates else 1
        for candidate in candidates:
            if candidate not in failed and platform.server_status(candidate):
                server = candidate
                break
        request.server = server
        self._ready_to_send.raise_blocking(request, server)

    def sync_invoker(self, occurrence: Occurrence) -> None:
        """Invoke the assigned server; raise invokeSuccess/invokeFailure."""
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        platform = self._platform
        try:
            if not platform.server_status(server):
                raise ServerFailedError(f"server {server} is not running")
            platform.bind(server)
            value = platform.invoke_server(server, request)
        except CommunicationError as exc:
            reply = Reply(server=server, exception=exc, failed=True)
            request.add_reply(reply)
            self._invoke_failure.raise_blocking(request, server, reply)
            return
        except (IdlRemoteException, InvocationError) as exc:
            # The invocation reached the servant and raised: an application-
            # level outcome, not a failure (PassiveRep must not fail over).
            reply = Reply(server=server, exception=exc)
            request.add_reply(reply)
            self._invoke_success.raise_blocking(request, server, reply)
            return
        reply = Reply(server=server, value=value)
        request.add_reply(reply)
        self._invoke_success.raise_blocking(request, server, reply)

    def result_returner(self, occurrence: Occurrence) -> None:
        """Default acceptance: the first reply completes the request."""
        request: Request = occurrence.args[0]
        reply: Reply = occurrence.args[2]
        if reply.exception is None and not reply.failed:
            request.complete(reply.value)  # a plain value, one call
        else:
            request.complete_from_reply(reply)


@register_micro_protocol("ServerBase")
class ServerBase(MicroProtocol):
    """The default server-side pipeline (see module docstring)."""

    name = "ServerBase"

    def start(self) -> None:
        composite = self.composite
        self._platform: ServerPlatform = composite.shared.get(SHARED_PLATFORM)
        self._priority_policy = composite.shared.get(SHARED_PRIORITY_POLICY)
        self._ready_to_invoke = composite.event(EV_READY_TO_INVOKE)
        self._invoke_return = composite.event(EV_INVOKE_RETURN)
        self.bind(EV_NEW_SERVER_REQUEST, self.get_parameters, order=ORDER_LAST)
        self.bind(EV_READY_TO_INVOKE, self.invoke_servant, order=ORDER_LAST)

    # -- handlers ------------------------------------------------------------

    def get_parameters(self, occurrence: Occurrence) -> None:
        """Extract Cactus parameters (priority) and raise readyToInvoke."""
        request: Request = occurrence.args[0]
        policy = self._priority_policy
        if policy is not None:
            request.piggyback[PB_PRIORITY] = int(policy(request))
        self._ready_to_invoke.raise_blocking(request)

    def invoke_servant(self, occurrence: Occurrence) -> None:
        """Call the server object, raise invokeReturn, complete the request."""
        request: Request = occurrence.args[0]
        try:
            value = self._platform.invoke_servant(request)
        except BaseException as exc:  # noqa: BLE001 - staged for invokeReturn
            request.attributes[ATTR_SERVANT_EXCEPTION] = exc
        else:
            request.set_result(value)
        # invokeReturn handlers run before the reply goes out: they may
        # transform the staged result (encryption) or advance ordering state.
        self._invoke_return.raise_blocking(request)
        exception = request.attributes.get(ATTR_SERVANT_EXCEPTION)
        if exception is not None:
            request.fail(exception)
        else:
            request.complete(request.stored_result)
