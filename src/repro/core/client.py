"""The Cactus client: the client-side CQoS service component.

"The client provides an operation cactus_request(requestID) that the stub
can use to notify it of the request arrival … [it] blocks until the request
has been completed.  The implementation … simply raises the appropriate
event newRequest, with the actual processing done by various
micro-protocols."  (paper, section 2.3.2)

The composite is created with a :class:`~repro.core.interfaces.ClientPlatform`
(stored in shared data under ``"platform"``) and a configuration of
micro-protocols.  At minimum the configuration must include
:class:`~repro.qos.base.ClientBase`; :meth:`CactusClient.with_base` builds
that default.

The synchronous-invocation assumption of the prototype is kept.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.cactus.composite import CompositeProtocol, MicroProtocol
from repro.cactus.runtime import CactusRuntime
from repro.core.events import EV_NEW_REQUEST
from repro.core.interfaces import ClientPlatform
from repro.core.request import HeldRequests, Request
from repro.util.errors import CommunicationError

SHARED_PLATFORM = "platform"
SHARED_FAILED_SERVERS = "failed_servers"


class CactusClient(CompositeProtocol):
    """Client-side composite protocol holding the QoS micro-protocols."""

    def __init__(
        self,
        platform: ClientPlatform,
        micro_protocols: Iterable[MicroProtocol] = (),
        name: str = "cactus-client",
        runtime: CactusRuntime | None = None,
        request_timeout: float | None = 30.0,
    ):
        super().__init__(name, runtime=runtime)
        self.platform = platform
        self.request_timeout = request_timeout
        # Requests whose cactus_request blocks waiting: shutdown fails them.
        self._held = HeldRequests()
        self.shared.set(SHARED_PLATFORM, platform)
        # Failure knowledge persists across requests (PassiveRep failover).
        self.shared.set(SHARED_FAILED_SERVERS, set())
        self._new_request = self.event(EV_NEW_REQUEST)
        self.configure(micro_protocols)

    @classmethod
    def with_base(
        cls,
        platform: ClientPlatform,
        extra: Iterable[MicroProtocol] = (),
        **kwargs: Any,
    ) -> "CactusClient":
        """Build a client configured with ClientBase plus ``extra``.

        QoS micro-protocols bind earlier than the base handlers, so they are
        installed first in either case; ``extra`` order is preserved.
        """
        from repro.qos.base import ClientBase

        return cls(platform, list(extra) + [ClientBase()], **kwargs)

    def cactus_request(self, request: Request) -> Any:
        """Process ``request``; block until completed; return its result.

        Raises whatever the request failed with (remote application
        exceptions, communication errors, QoS policy errors).  A handler
        exception that unwinds the chain (a ``BindError`` out of
        ``platform.bind()``, a ``MarshalError`` out of ``invoke_server()``)
        *fails* the request before it propagates, as does a timed-out wait,
        so ``Request.on_complete`` release hooks always fire exactly once.
        """
        try:
            self._new_request.raise_blocking(request)
            return request.wait(self.request_timeout, self._held)
        except BaseException as exc:
            request.fail(exc)  # no-op when already completed
            raise

    def shutdown(self) -> None:
        """Unbind every micro-protocol and fail each request still held
        (waiting for a gather, a retry or a reply), so its caller returns
        now instead of after ``request_timeout``."""
        super().shutdown()
        self._held.fail_all(CommunicationError(f"{self.name} shut down with the request held"))
