"""Deterministic in-memory network with fault and latency injection.

Each ``call`` models a request message and a reply message.  Per-message
latency (plus optional uniform jitter) is charged via the network's clock —
a :class:`~repro.util.clock.RealClock` for benchmarks (real sleeps, so the
paper's message-count-dominated configurations really do cost more) or a
:class:`~repro.util.clock.VirtualClock` for tests that want to control time.

Fault injection:

- ``crash(host)`` / ``recover(host)`` — a crashed host's services raise
  :class:`ServerFailedError` for callers and its outbound calls fail too;
- ``partition(groups)`` / ``heal()`` — hosts in different groups cannot
  exchange messages (:class:`CommunicationError`);
- ``set_loss(probability, seed)`` — each message is independently lost with
  the given probability (seeded PRNG for reproducibility); a lost message
  surfaces as a :class:`CommunicationError`, the behaviour of a connection
  reset, which is what the retransmission micro-protocol reacts to.

Handlers execute on the calling thread after the request latency has been
charged — the thread-per-request server model, matching how both middleware
substrates dispatch.
"""

from __future__ import annotations

import random
import threading
import time

from repro.net.transport import (
    Connection,
    FrameHandler,
    Host,
    Listener,
    Network,
    ReplyFuture,
    split_address,
)
from repro.util.clock import Clock, RealClock
from repro.util.errors import CommunicationError, ServerFailedError


class _MemoryListener(Listener):
    def __init__(self, network: "InMemoryNetwork", address: str):
        self._network = network
        self._address = address
        self._closed = False

    @property
    def address(self) -> str:
        return self._address

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._network._unregister(self._address)


class _MemoryConnection(Connection):
    """Any number of calls in flight at once, as on multiplexed TCP."""

    def __init__(self, network: "InMemoryNetwork", source_host: str, address: str):
        self._network = network
        self._source = source_host
        self._address = address
        self._closed = False

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        if self._closed:
            raise CommunicationError("connection is closed")
        return self._network._deliver(self._source, self._address, data)

    def call_async(self, data: bytes, timeout: float | None = None) -> ReplyFuture:
        """Non-blocking submit over the handler-on-caller-thread model.

        The in-memory network executes the server handler synchronously on
        whatever thread delivers the request, so one dispatch thread per
        in-flight call *is* this transport's native concurrency unit (it is
        what the listener side of real TCP does too): the inherited
        submit, which never fails at submit time for a live connection.
        """
        if self._closed:
            return ReplyFuture.failed(CommunicationError("connection is closed"))
        return super().call_async(data, timeout)

    def close(self) -> None:
        self._closed = True


class _MemoryHost(Host):
    def __init__(self, network: "InMemoryNetwork", name: str):
        super().__init__(name)
        self._network = network

    def listen(self, service: str, handler: FrameHandler) -> Listener:
        address = f"{self.name}/{service}"
        self._network._register(address, handler)
        return _MemoryListener(self._network, address)

    def connect(self, address: str) -> Connection:
        split_address(address)  # validate early
        return _MemoryConnection(self._network, self.name, address)


class InMemoryNetwork(Network):
    """See module docstring.

    ``latency`` is the one-way per-message delay in seconds; a ``call``
    charges it twice (request + reply).  ``jitter`` adds a uniform random
    extra delay in ``[0, jitter]`` per message.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        latency: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
        spin: bool = False,
    ):
        """``spin=True`` charges latency by busy-waiting on the wall clock
        instead of sleeping — microsecond-accurate, which the benchmarks
        need (``time.sleep`` oversleeps by tens of microseconds with high
        variance at LAN-latency scales).  Only meaningful with a real clock.
        """
        self.clock = clock or RealClock()
        self.latency = latency
        self.jitter = jitter
        self.spin = spin
        self._lock = threading.Lock()
        self._handlers: dict[str, FrameHandler] = {}
        self._hosts: dict[str, _MemoryHost] = {}
        self._crashed: set[str] = set()
        self._partition_of: dict[str, int] = {}
        self._loss_probability = 0.0
        self._rng = random.Random(seed)
        self._message_count = 0

    # -- Host management -------------------------------------------------

    def host(self, name: str) -> Host:
        with self._lock:
            existing = self._hosts.get(name)
            if existing is None:
                existing = _MemoryHost(self, name)
                self._hosts[name] = existing
            return existing

    def _register(self, address: str, handler: FrameHandler) -> None:
        with self._lock:
            if address in self._handlers:
                raise CommunicationError(f"address already in use: {address}")
            self._handlers[address] = handler

    def _unregister(self, address: str) -> None:
        with self._lock:
            self._handlers.pop(address, None)

    # -- Fault injection -------------------------------------------------

    def crash(self, host_name: str) -> None:
        with self._lock:
            self._crashed.add(host_name)

    def recover(self, host_name: str) -> None:
        with self._lock:
            self._crashed.discard(host_name)

    def is_crashed(self, host_name: str) -> bool:
        with self._lock:
            return host_name in self._crashed

    def partition(self, groups: list[list[str]]) -> None:
        """Split hosts into isolated groups; unlisted hosts join group 0."""
        with self._lock:
            self._partition_of = {}
            for index, group in enumerate(groups):
                for host_name in group:
                    self._partition_of[host_name] = index

    def heal(self) -> None:
        with self._lock:
            self._partition_of = {}

    def set_loss(self, probability: float, seed: int | None = None) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        with self._lock:
            self._loss_probability = probability
            if seed is not None:
                self._rng = random.Random(seed)

    @property
    def message_count(self) -> int:
        """Total messages carried (requests + replies); a cost probe for tests."""
        with self._lock:
            return self._message_count

    def close(self) -> None:
        with self._lock:
            self._handlers.clear()
            self._hosts.clear()
        self.threads.close()

    # -- Delivery --------------------------------------------------------

    def _check_reachable(self, source: str, destination: str) -> None:
        if source in self._crashed:
            raise ServerFailedError(f"source host {source} is crashed")
        if destination in self._crashed:
            raise ServerFailedError(f"host {destination} is crashed")
        if self._partition_of:
            src_group = self._partition_of.get(source, 0)
            dst_group = self._partition_of.get(destination, 0)
            if src_group != dst_group:
                raise CommunicationError(
                    f"{source} and {destination} are in different partitions"
                )

    def _charge_message(self, source: str, destination: str) -> bool:
        """Account for one message: reachability, loss, latency.  True when
        it slept out a latency, during which a host may have crashed."""
        with self._lock:
            self._message_count += 1
            self._check_reachable(source, destination)
            lost = (
                self._loss_probability > 0.0
                and self._rng.random() < self._loss_probability
            )
            delay = self.latency
            if self.jitter > 0.0:
                delay += self._rng.uniform(0.0, self.jitter)
        if delay > 0.0:
            if self.spin:
                deadline = time.perf_counter() + delay
                while time.perf_counter() < deadline:
                    pass
            else:
                self.clock.sleep(delay)
        if lost:
            raise CommunicationError(f"message {source}->{destination} lost")
        return delay > 0.0

    def _deliver(self, source: str, address: str, data: bytes) -> bytes:
        destination, _ = split_address(address)
        if self._charge_message(source, destination):
            # Re-check after the latency sleep: the host may have crashed
            # while the request was in flight.
            with self._lock:
                self._check_reachable(source, destination)
        handler = self._handlers.get(address)  # one dict read, atomic under the GIL
        if handler is None:
            raise CommunicationError(f"no listener at {address}")
        reply = handler(data)
        self._charge_message(destination, source)
        return reply
