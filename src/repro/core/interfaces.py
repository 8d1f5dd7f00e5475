"""The Cactus QoS interface: what the interceptors expose to the protocols.

"The Cactus QoS interface also provides [an] abstract representation of the
server objects … operations for creating connections with specific servers
(bind()), testing the status of a server (server_status()), and sending
requests to specific servers (invoke_server()).  …  the interface allows
the server replicas to be referred to by numbers (1..N) rather than by
application or middleware specific identifiers."  (paper, section 2.2)

Two abstract platforms implement it, one per side:

- :class:`ClientPlatform` — held by the Cactus client; the request
  lifecycle (lazy binding, liveness, probes, fault taxonomy) is
  implemented once in :class:`repro.core.platform.BaseClientPlatform`;
  the CORBA/RMI/HTTP adapters contribute only their codec (naming
  convention, lookup, request conversion — DII on CORBA);
- :class:`ServerPlatform` — held by the Cactus server; provides
  ``invoke_servant()`` (the native call into the real server object) and
  the replica control plane (``peer_invoke``) that PassiveRep and
  TotalOrder use, "identical techniques to establish connections between
  server object replicas" — shared in
  :class:`repro.core.platform.BaseServerPlatform`.

Everything in :mod:`repro.qos` is written against these two ABCs only —
that is the portability claim of the paper, made executable (and
machine-checked by ``tools/check_layering.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.core.request import Request
from repro.net.transport import ReplyFuture, threaded_reply_future
from repro.util.concurrency import WorkerThreads

# What the ``*_async`` defaults below run on: they serve a platform that
# defines only the blocking call and belongs to no deployment (test fakes,
# decorated stacks).  A closed set: each spawn is a thread that ends with
# its call, so nothing is parked for a process's lifetime.
_DETACHED = WorkerThreads("cqos-send-async")
_DETACHED.close()


class ClientPlatform(ABC):
    """Client-side platform abstraction (replicas are numbers 1..N).

    The paper's four operations are abstract; the rest of the surface the
    QoS layer calls is written once over them here, and
    :class:`~repro.core.platform.BaseClientPlatform` overrides it with the
    directory view's sparse ids, a control ping, latency ranking and the
    substrate's pipelined send.
    """

    #: The target object, and the client's
    #: :class:`~repro.core.routing.ShardRouter` (None: no routing layer).
    object_id: str = ""
    router: Any = None

    @abstractmethod
    def num_servers(self) -> int:
        """How many server replicas exist for the target object."""

    @abstractmethod
    def bind(self, server: int) -> None:
        """(Re-)establish the connection to replica ``server``.

        Also the recovery path: "the bind() operation can also be used to
        rebind to a failed server after it has recovered."
        """

    @abstractmethod
    def server_status(self, server: int) -> bool:
        """True when replica ``server`` is believed to be running."""

    @abstractmethod
    def invoke_server(self, server: int, request: Request) -> Any:
        """Synchronously invoke ``request`` on replica ``server``.

        Returns the reply value.  Application-level exceptions (IDL
        ``raises`` values and remote system exceptions) are raised as-is;
        :class:`~repro.util.errors.CommunicationError` subtypes signal that
        the replica did not process the request.
        """


    def server_ids(self) -> tuple[int, ...]:
        """The logical replica numbers, in preference order.

        Sharded directory views produce legitimately sparse id spaces, so
        QoS protocols iterate this instead of assuming ``range(1, N+1)``.
        """
        return tuple(range(1, self.num_servers() + 1))

    def rank_servers(self, candidates: Iterable[int]) -> tuple[int, ...]:
        """``candidates`` reordered most-promising first."""
        return tuple(candidates)

    def probe(self, server: int) -> bool:
        """Actively check replica ``server``; True when it answered."""
        return self.server_status(server)

    def invoke_server_async(self, server: int, request: Request) -> ReplyFuture:
        """Non-blocking :meth:`invoke_server`: the outcome settles the future."""
        return threaded_reply_future(_DETACHED, lambda: self.invoke_server(server, request))


class ServerPlatform(ABC):
    """Server-side platform abstraction for one replica's Cactus server."""

    #: The authoritative :class:`~repro.core.routing.ShardRouter` of a
    #: sharded deployment (None when unsharded).
    router: Any = None

    @abstractmethod
    def invoke_servant(self, request: Request) -> Any:
        """Invoke the real server object (native call) and return the value."""

    @abstractmethod
    def my_replica(self) -> int:
        """This replica's number (1-based; 1 is the conventional coordinator)."""

    @abstractmethod
    def num_replicas(self) -> int:
        """Total replicas of this object (including this one)."""

    @abstractmethod
    def peer_invoke(self, replica: int, kind: str, payload: dict) -> Any:
        """Send a control message to a peer replica's Cactus server.

        Delivered through the same middleware as client requests; surfaces
        at the peer as a blocking raise of event ``"control:<kind>"``.
        """

    @abstractmethod
    def peer_status(self, replica: int) -> bool:
        """True when the peer replica is believed to be running."""

    def replica_ids(self) -> tuple[int, ...]:
        """Logical ids of this object's replica group (sparse when sharded).

        Replication protocols multicast to this instead of assuming a dense
        ``range(1, num_replicas()+1)``.
        """
        return tuple(range(1, self.num_replicas() + 1))

    def peer_invoke_async(self, replica: int, kind: str, payload: dict) -> ReplyFuture:
        """Non-blocking :meth:`peer_invoke`: the outcome settles the future."""
        return threaded_reply_future(
            _DETACHED, lambda: self.peer_invoke(replica, kind, payload)
        )


@dataclass
class ControlMessage:
    """A replica control-plane message as seen by a control event handler."""

    kind: str
    payload: dict
    sender: int
    reply: Any = None
    #: Set True by a handler that consumed the message.
    handled: bool = field(default=False)

    def respond(self, value: Any) -> None:
        """Set the reply returned to the sending replica."""
        self.reply = value
        self.handled = True
