"""Abstract transport interfaces shared by the in-memory and TCP networks.

The middleware substrates (:mod:`repro.orb`, :mod:`repro.rmi`) are written
against these interfaces only, which is what lets every test and benchmark
choose deterministic in-memory delivery or real loopback TCP without the
upper layers noticing — the same property the paper relies on when it claims
CQoS is portable across anything with a request/reply paradigm.

Addresses are strings of the form ``"host/service"``.
"""

from __future__ import annotations

import concurrent.futures
import threading
from abc import ABC, abstractmethod
from typing import Any, Callable

from repro.util.concurrency import WorkerThreads
from repro.util.errors import TimeoutError_

# A request handler consumes a request frame and produces a reply frame.
FrameHandler = Callable[[bytes], bytes]

# Held while a network makes its thread set (see ``Network.threads``).
_FIRST_USE = threading.Lock()


class ReplyFuture:
    """The non-blocking half of one request/reply exchange.

    Wraps a :class:`concurrent.futures.Future` carrying the raw reply frame
    (or the delivery error) plus an optional lazy *transform chain* — the
    decode steps the substrates (GIOP/JRMP/HTTP) attach via :meth:`then`.
    Transforms run on the **consumer's** thread at :meth:`result` time, never
    on a transport reader thread, and their outcome is cached
    so decode and its side effects (connection-pool drops) happen once.

    :meth:`add_done_callback` fires when the *wire* exchange settles (reply
    frame arrived or delivery failed) — before any transform runs — which is
    what scatter-gather needs to order completions without paying decode on
    the signalling thread.
    """

    __slots__ = ("_future", "_steps", "_abandon_hook", "_lock", "_resolved",
                 "_value", "_error")

    def __init__(self, future=None, *, abandon=None):
        self._future = future if future is not None else concurrent.futures.Future()
        self._steps: tuple = ()
        self._abandon_hook = abandon
        self._lock = threading.Lock()
        self._resolved = False
        self._value = None
        self._error: BaseException | None = None

    # -- producers ---------------------------------------------------------

    @classmethod
    def resolved(cls, value) -> "ReplyFuture":
        """A future already completed with ``value``."""
        future = concurrent.futures.Future()
        future.set_result(value)
        return cls(future)

    @classmethod
    def failed(cls, error: BaseException) -> "ReplyFuture":
        """A future already failed with ``error``."""
        future = concurrent.futures.Future()
        future.set_exception(error)
        return cls(future)

    # -- consumers ---------------------------------------------------------

    def done(self) -> bool:
        """True once the underlying exchange settled (reply or error)."""
        return self._future.done()

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` when the exchange settles (immediately if done).

        The callback runs on whichever thread settles the future (a
        transport reader thread): it must be cheap and must
        not block — push to a queue and consume elsewhere.
        """
        self._future.add_done_callback(lambda _f: fn(self))

    def result(self, timeout: float | None = None):
        """Block for the reply, apply the transform chain, return the value.

        Raises :class:`~repro.util.errors.TimeoutError_` if the exchange has
        not settled within ``timeout`` (the transforms are *not* consulted —
        the call may still complete later); afterwards re-raisable /
        re-callable with the cached outcome.
        """
        with self._lock:
            if not self._resolved:
                try:
                    value, error = self._future.result(timeout), None
                except concurrent.futures.TimeoutError:
                    raise TimeoutError_("no reply within deadline") from None
                except concurrent.futures.CancelledError:
                    value, error = None, TimeoutError_("exchange abandoned")
                except BaseException as exc:  # noqa: BLE001 - fed to on_error
                    value, error = None, exc
                for on_value, on_error in self._steps:
                    if error is None:
                        if on_value is None:
                            continue
                        try:
                            value = on_value(value)
                        except BaseException as exc:  # noqa: BLE001
                            value, error = None, exc
                    elif on_error is not None:
                        try:
                            value, error = on_error(error), None
                        except BaseException as exc:  # noqa: BLE001
                            value, error = None, exc
                self._value, self._error, self._resolved = value, error, True
            if self._error is not None:
                raise self._error
            return self._value

    def then(self, on_value=None, on_error=None) -> "ReplyFuture":
        """Append a lazy transform step; returns ``self`` for chaining.

        ``on_value(raw)`` maps a successful reply (e.g. decode); ``on_error
        (exc)`` observes a failure and either returns a recovery value or
        raises the (mapped) error.  Steps run in order at :meth:`result`.
        """
        self._steps = self._steps + ((on_value, on_error),)
        return self

    def abandon(self) -> None:
        """Give up on the reply: release transport-side waiter state.

        Idempotent and safe after completion.  The request was already sent
        — abandoning does not un-execute it; it only guarantees the local
        correlation-id entry is reclaimed (no waiter leak) and that a reply
        arriving later is discarded.
        """
        hook, self._abandon_hook = self._abandon_hook, None
        if hook is not None:
            try:
                hook()
            except Exception:  # noqa: BLE001 - abandon must never raise
                pass


def threaded_reply_future(threads: WorkerThreads, call: Callable[[], Any]) -> ReplyFuture:
    """Run a blocking ``call()`` on a thread of ``threads``; its outcome
    settles the returned future.

    The non-blocking form of anything that only has a blocking one: a
    transport whose handler runs on the delivering thread, a decorating
    connection, a platform that defines only ``invoke_server``.  Never
    queued (:meth:`WorkerThreads.spawn`), so a call whose handler blocks on
    nested async calls (replica forwarding chains) cannot deadlock.

    Returns once the call is under way on its thread, parked or new, as
    ``Thread.start()`` does: calls submitted one after another leave in
    that order, the in-memory counterpart of a TCP submit returning with
    the frame written.  A courtesy to sequential callers, not a guarantee.
    """
    future: concurrent.futures.Future = concurrent.futures.Future()
    under_way = threading.Lock()
    under_way.acquire()

    def run() -> None:
        under_way.release()
        try:
            result = call()
        except BaseException as exc:  # noqa: BLE001 - delivered via the future
            future.set_exception(exc)
        else:
            future.set_result(result)

    threads.spawn(run)
    under_way.acquire()
    return ReplyFuture(future)


class Connection(ABC):
    """A client-side handle for blocking request/reply exchanges."""

    #: The network that made this connection; the default
    #: :meth:`call_async` borrows its threads.
    _network: "Network"

    @abstractmethod
    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        """Send ``data``, block for the reply frame, and return it.

        Connections are safe for concurrent callers: many threads may have
        calls in flight on one connection at once, and each receives its own
        correlated reply.

        Raises :class:`~repro.util.errors.CommunicationError` when the peer
        is crashed, partitioned away, or the message is lost, and
        :class:`~repro.util.errors.TimeoutError_` on deadline expiry.
        """

    def call_async(self, data: bytes, timeout: float | None = None) -> ReplyFuture:
        """Send ``data`` without blocking; the reply settles the future.

        Default implementation: the blocking :meth:`call` on a thread of
        the network's set, so decorating transports (chaos) keep their
        per-call fault model without knowing about futures.  The TCP
        transport overrides this with a native non-blocking submit (one
        registered correlation id, no thread per call).
        """
        return threaded_reply_future(
            self._network.threads, lambda: self.call(data, timeout=timeout)
        )

    @abstractmethod
    def close(self) -> None:
        """Release the connection.  Idempotent."""


class Listener(ABC):
    """A server-side registration of a service on a host."""

    @property
    @abstractmethod
    def address(self) -> str:
        """The full ``"host/service"`` address this listener serves."""

    @abstractmethod
    def close(self) -> None:
        """Stop serving.  Idempotent."""


class Host(ABC):
    """A logical node: the unit of crash, recovery, and partition injection."""

    def __init__(self, name: str):
        self.name = name

    @abstractmethod
    def listen(self, service: str, handler: FrameHandler) -> Listener:
        """Serve ``handler`` at ``"<host>/<service>"``."""

    @abstractmethod
    def connect(self, address: str) -> Connection:
        """Open a connection from this host to ``address``."""


class Network(ABC):
    """A collection of hosts plus fault-injection controls."""

    @property
    def threads(self) -> WorkerThreads:
        """The one set every thread of a deployment on this network comes
        from: the transport's accept, serve and dispatch loops and, borrowed
        by :class:`~repro.core.service.CqosDeployment`, the Cactus lanes and
        timers.  Made on first use (a subclass need not run an initialiser
        here); :meth:`close` releases it."""
        try:
            return self._threads
        except AttributeError:
            # Not through ``__dict__``: reading that slows every later
            # attribute load of a network that is on the invocation path.
            with _FIRST_USE:
                if not hasattr(self, "_threads"):
                    self._threads = WorkerThreads("cqos")
                return self._threads

    @abstractmethod
    def host(self, name: str) -> Host:
        """Return (creating if necessary) the host named ``name``."""

    @abstractmethod
    def crash(self, host_name: str) -> None:
        """Crash a host: its services stop answering until recovery."""

    @abstractmethod
    def recover(self, host_name: str) -> None:
        """Recover a crashed host: existing listeners resume answering."""

    @abstractmethod
    def close(self) -> None:
        """Tear down every host and listener and close :attr:`threads`."""


def split_address(address: str) -> tuple[str, str]:
    """Split ``"host/service"`` into its two components."""
    host, sep, service = address.partition("/")
    if not sep or not host or not service:
        raise ValueError(f"malformed address {address!r}; expected 'host/service'")
    return host, service
