"""The Cactus server: the server-side CQoS service component.

"The server provides an operation cactus_invoke(requestID) for the
skeleton … [it] blocks until the request has been completed" — i.e. until
some handler chain has invoked the servant (or rejected the request) and
completed the abstract request.  The implementation raises
``newServerRequest``; everything else is micro-protocols.

The composite also hosts the replica **control plane**: control messages
sent by peer Cactus servers through the middleware
(:meth:`~repro.core.interfaces.ServerPlatform.peer_invoke`) surface here as
blocking raises of ``"control:<kind>"`` events carrying a
:class:`~repro.core.interfaces.ControlMessage`.  PassiveRep's forwarding and
TotalOrder's ordering announcements are such messages.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.cactus.composite import CompositeProtocol, MicroProtocol
from repro.cactus.runtime import CactusRuntime
from repro.core.events import CONTROL_EVENT_PREFIX, EV_NEW_SERVER_REQUEST
from repro.core.interfaces import ControlMessage, ServerPlatform
from repro.core.piggyback import wrap_reply_value
from repro.core.request import HeldRequests, Request
from repro.util.errors import ConfigurationError, ServerFailedError

SHARED_PLATFORM = "platform"
SHARED_PRIORITY_POLICY = "priority_policy"
SHARED_ORDERING = "ordering"  # TotalOrder publishes itself to the schedulers


class CactusServer(CompositeProtocol):
    """Server-side composite protocol for one object replica."""

    def __init__(
        self,
        platform: ServerPlatform,
        micro_protocols: Iterable[MicroProtocol] = (),
        name: str = "cactus-server",
        runtime: CactusRuntime | None = None,
        request_timeout: float | None = 30.0,
        priority_policy: Callable[[Request], int] | None = None,
    ):
        super().__init__(name, runtime=runtime)
        self.platform = platform
        self.request_timeout = request_timeout
        # Requests whose cactus_invoke blocks waiting: shutdown fails them.
        self._held = HeldRequests()
        self.shared.set(SHARED_PLATFORM, platform)
        if priority_policy is not None:
            self.shared.set(SHARED_PRIORITY_POLICY, priority_policy)
        self._new_server_request = self.event(EV_NEW_SERVER_REQUEST)
        self.configure(micro_protocols)

    @classmethod
    def with_base(
        cls,
        platform: ServerPlatform,
        extra: Iterable[MicroProtocol] = (),
        **kwargs: Any,
    ) -> "CactusServer":
        """Build a server configured with ServerBase plus ``extra``."""
        from repro.qos.base import ServerBase

        return cls(platform, list(extra) + [ServerBase()], **kwargs)

    def cactus_invoke(self, request: Request) -> Any:
        """Process an incoming request; block until completed.

        Returns the (possibly micro-protocol-transformed) result; raises the
        request's failure otherwise.  The skeleton marshals the outcome back
        into the platform reply.

        Whatever way the dispatch dies — a handler exception unwinding the
        chain or the wait timing out — the request is *failed* before the
        error propagates, so ``Request.on_complete`` release hooks
        (admission slots, in-flight counters) always fire exactly once.
        When server micro-protocols staged reply-direction piggyback, the
        result travels inside the reserved reply envelope (see
        :func:`repro.core.piggyback.wrap_reply_value`).
        """
        try:
            self._new_server_request.raise_blocking(request)
            value = request.wait(self.request_timeout, self._held)
        except BaseException as exc:
            request.fail(exc)  # no-op when already completed
            raise
        reply_piggyback = request.reply_piggyback
        return wrap_reply_value(value, reply_piggyback) if reply_piggyback else value

    def shutdown(self) -> None:
        """Unbind every micro-protocol and fail each request still held
        (queued by an ordering or a scheduler, or waiting for one), so its
        dispatch thread returns now instead of after ``request_timeout``."""
        super().shutdown()
        self._held.fail_all(ServerFailedError(f"{self.name} shut down with the request held"))

    def handle_control(self, kind: str, payload: dict, sender: int) -> Any:
        """Deliver a peer control message to its ``control:<kind>`` event.

        Returns the handler-provided reply.  An unhandled control kind is a
        configuration mismatch between replicas (e.g. one side running
        TotalOrder and the other not) and fails loudly.
        """
        message = ControlMessage(kind=kind, payload=payload, sender=sender)
        event_name = CONTROL_EVENT_PREFIX + kind
        if self.event(event_name).handler_count() == 0:
            raise ConfigurationError(
                f"replica received control message {kind!r} but no micro-protocol "
                f"handles it (configuration mismatch between replicas?)"
            )
        self.raise_event(event_name, message)
        return message.reply
