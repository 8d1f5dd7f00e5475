"""The CQoS skeleton: the server-side interceptor (platform-independent core).

"Server side interception is based on using the CQoS skeleton as a proxy
server for the actual server object.  This skeleton overwrites the server
object binding with the underlying middleware layer, and thus the incoming
requests are automatically forwarded to the CQoS skeleton, which also
creates an abstract request object and notifies the Cactus server."

This class is the platform-independent half; the CORBA adapter wraps it in
a DSI :class:`~repro.orb.dsi.DynamicImplementation` and the RMI adapter in
a generic-invoke remote object.  Both feed :meth:`handle_invocation`.

Besides application operations, the skeleton serves the replica **control
plane**: requests whose operation is
:data:`~repro.core.platform.CONTROL_OPERATION` carry
``[kind, sender_replica, payload]`` and are routed to the Cactus server's
``control:<kind>`` event (``ping`` is answered directly, enabling
``server_status()`` probes even for pass-through skeletons).

Two sharding duties also live here because the skeleton sees every request:

- **view-delta serving** — when the server platform carries a sharded
  :class:`~repro.core.routing.router.ShardRouter` and the client stamped an
  older view version, the delta bringing it current is staged onto the
  reply piggyback (the pull half of membership-driven view propagation);
- **drain, then retirement** — a sharded skeleton counts the application
  requests it is executing; a shard handoff waits in :meth:`drain` for
  that count to reach zero, then :meth:`retire` makes the skeleton refuse
  non-control operations with :class:`~repro.util.errors.ShardMovedError`
  so a stale client re-resolves to the new owner instead of silently
  executing against the old one.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.interfaces import ServerPlatform
from repro.core.piggyback import wrap_reply_value
from repro.core.platform import CONTROL_OPERATION, CONTROL_PING
from repro.core.request import PB_REQUEST_ID, PB_VIEW_DELTA, PB_VIEW_VERSION, Request
from repro.core.server import CactusServer
from repro.util.errors import ConfigurationError, ShardMovedError


class CqosSkeleton:
    """Platform-independent proxy-servant logic for one object replica."""

    def __init__(
        self,
        object_id: str,
        platform: ServerPlatform,
        cactus_server: CactusServer | None = None,
    ):
        self.object_id = object_id
        self._platform = platform
        self._cactus_server = cactus_server
        self._retired = False
        # In-flight application requests on the sharded branch.  A plain
        # lock guards the count per call; a condition over the same lock,
        # made by the first drain, is notified only when the count reaches
        # zero while a drain waits.
        self._lock = threading.Lock()
        self._inflight = 0
        self._drainers = 0
        self._drained: threading.Condition | None = None

    @property
    def cactus_server(self) -> CactusServer | None:
        return self._cactus_server

    def retire(self) -> None:
        """Refuse further application operations (shard handoff complete).

        Control-plane traffic (pings, replica coordination) still works so a
        retired replica remains observable, but application requests raise
        :class:`ShardMovedError` — wire-safe and retryable, so a stale
        client drops its binding, re-resolves the (re-registered) name, and
        lands on the new owner.
        """
        self._retired = True

    @property
    def inflight(self) -> int:
        """Application requests this sharded skeleton is executing now."""
        return self._inflight

    def drain(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for the in-flight count to reach
        zero; True when it did."""
        with self._lock:
            if self._drained is None:
                self._drained = threading.Condition(self._lock)
            self._drainers += 1
            try:
                return self._drained.wait_for(lambda: not self._inflight, timeout)
            finally:
                self._drainers -= 1

    def handle_invocation(self, operation: str, arguments: list, context: dict) -> Any:
        """Process one intercepted platform request; return the reply value.

        Application and system exceptions propagate to the platform wrapper,
        which marshals them into the platform's reply format.
        """
        if operation == CONTROL_OPERATION:
            kind, sender, payload = arguments
            return self._handle_control(str(kind), int(sender), dict(payload))
        if self._retired:
            raise ShardMovedError(
                f"{self.object_id} no longer served here (shard moved)"
            )
        request = Request(
            object_id=self.object_id,
            operation=operation,
            params=arguments,
            piggyback=context,
            # Preserve the client-side identity so replicas agree on it.
            request_id=context.get(PB_REQUEST_ID),
        )
        router = self._platform.router
        sharded = router is not None and router._view.groups  # .sharded, no call
        if sharded:
            self._stage_view_delta(request, router)
            with self._lock:
                self._inflight += 1
        try:
            if self._cactus_server is not None:
                return self._cactus_server.cactus_invoke(request)
            # Pass-through (Table 1's "+CQoS skeleton" rung): the abstract
            # request is built and the servant invoked natively, no Cactus.
            # Staged reply piggyback (view deltas) still rides the envelope.
            return wrap_reply_value(
                self._platform.invoke_servant(request), request.reply_piggyback
            )
        finally:
            if sharded:
                with self._lock:
                    self._inflight -= 1
                    if self._drainers and not self._inflight:
                        self._drained.notify_all()

    def _stage_view_delta(self, request: Request, router: Any) -> None:
        """Stage the view delta for a client behind this server's sharded view.

        Only when the client stamped a version other than the server's
        (unsharded clients never stamp, keeping their wire traffic
        byte-identical to pre-routing builds; a current client needs none).
        """
        client_version = request.piggyback.get(PB_VIEW_VERSION)
        if client_version is None or client_version == router._view.version:
            return
        delta = router.delta_since(int(client_version))
        if delta is not None:
            request.reply_piggyback[PB_VIEW_DELTA] = delta

    def _handle_control(self, kind: str, sender: int, payload: dict) -> Any:
        if kind == CONTROL_PING:
            return True
        if self._cactus_server is None:
            raise ConfigurationError(
                f"control message {kind!r} received but no Cactus server is attached"
            )
        return self._cactus_server.handle_control(kind, payload, sender)
