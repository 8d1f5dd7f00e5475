"""The one fault model: deterministic fault injection over any network.

:class:`ChaosNetwork` is a decorator around any :class:`~repro.net.transport.Network`
— the in-memory transport *or* real loopback TCP — that applies a seedable
:class:`FaultPlan` to every message.  It is the only place loss, partitions,
latency and the rest are injected; the transports underneath only deliver
(and crash a host on request), so a test or benchmark names its faults the
same way whatever the wire::

    plan = FaultPlan(seed=42, loss=0.1, latency=0.005, jitter=0.01)
    net = ChaosNetwork(TcpNetwork(), plan)
    net.host("server").listen("svc", handler)     # transparent pass-through
    conn = net.host("client").connect("server/svc")
    conn.call(b"...")                             # may be lost / delayed / ...

Fault model (each knob independent, applied per message — one ``call`` is a
request message and a reply message):

- **loss** — the message vanishes; the caller sees
  :class:`~repro.util.errors.CommunicationError` (a lost *request* never
  executed; a lost *reply* did execute — exactly the at-most-once ambiguity
  retry protocols must cope with);
- **latency/jitter** — per-message delay ``latency + U(0, jitter)``, charged
  on the network's :class:`~repro.util.clock.Clock` (one that busy-waits
  for a microsecond-accurate LAN hop, a
  :class:`~repro.util.clock.VirtualClock` for a test that steps time);
- **duplicate** — the request is delivered twice (the duplicate's reply is
  discarded), exercising server-side duplicate suppression;
- **reorder** — the message is additionally delayed by ``reorder_delay`` so
  concurrent messages can overtake it (under blocking request/reply,
  reordering is only observable across connections);
- **corrupt** — one byte of the payload is flipped, exercising unmarshalling
  error paths and integrity micro-protocols;
- **reset** — the exchange is aborted *after* the server executed, modelling
  a connection reset between execution and reply delivery;
- **partition** — hosts in different groups cannot exchange messages (the
  request is checked as it leaves, the reply as it comes back);
- **schedule** — ``(at_seconds, "crash"|"recover", host)`` events applied on
  the network's clock relative to :meth:`ChaosNetwork.start` (lazily the
  first message), delegated to the inner network's crash injection.

Determinism: every decision is drawn from a per-connection PRNG stream
seeded with ``f"{seed}|{source}->{address}|{n}"`` (``n`` = creation index of
that connection on that link).  Seeds fed to :class:`random.Random` as
strings hash via SHA-512, so streams are stable across processes and
``PYTHONHASHSEED``.  Two runs that create connections in the same order and
issue the same calls per connection draw identical fault sequences —
the property the replay tests pin down.

``exempt_hosts`` lets tests keep bootstrap traffic (naming service, RMI
registry) clean while application links burn: messages to or from an exempt
host skip loss/delay/corruption (but still honour partitions and crashes).
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, replace

from repro.net.transport import Connection, FrameHandler, Host, Listener, Network, split_address
from repro.util.clock import Clock, RealClock
from repro.util.errors import CommunicationError


@dataclass(frozen=True)
class FaultPlan:
    """A seedable description of what goes wrong on the wire.

    All probabilities are per *message* (two messages per call) and
    independent.  The plan is immutable; :meth:`ChaosNetwork.set_plan`
    swaps plans atomically mid-run.
    """

    seed: int = 0
    #: Probability a message is lost (surfaces as CommunicationError).
    loss: float = 0.0
    #: Fixed one-way per-message delay in seconds.
    latency: float = 0.0
    #: Extra uniform random delay in [0, jitter] per message.
    jitter: float = 0.0
    #: Probability a request is delivered twice.
    duplicate: float = 0.0
    #: Probability a message is held back an extra ``reorder_delay`` seconds.
    reorder: float = 0.0
    reorder_delay: float = 0.0
    #: Probability one payload byte is flipped.
    corrupt: float = 0.0
    #: Probability the exchange is reset after execution (reply lost).
    reset: float = 0.0
    #: ``(at_seconds, "crash"|"recover", host_name)`` events on the network's clock.
    schedule: tuple[tuple[float, str, str], ...] = ()
    #: Hosts whose traffic skips loss/delay/corruption (bootstrap services).
    exempt_hosts: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("loss", "duplicate", "reorder", "corrupt", "reset"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")
        for name in ("latency", "jitter"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        for at, action, _host in self.schedule:
            if action not in ("crash", "recover"):
                raise ValueError(f"unknown scheduled action {action!r}")
            if at < 0:
                raise ValueError(f"scheduled event time must be >= 0, got {at}")


class _ChaosConnection(Connection):
    def __init__(self, network: "ChaosNetwork", source_host: str, address: str, inner: Connection):
        self._network = network
        self._source = source_host
        self._address = address
        self._destination, _ = split_address(address)
        self._inner = inner
        with network._lock:
            self._reseeds, self._rng = network._connection_stream(source_host, address)
        self._closed = False

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        if self._closed:
            raise CommunicationError("connection is closed")
        network = self._network
        source, destination = self._source, self._destination
        plan = network._plan
        if plan.schedule:
            network._apply_due_events()
        network._check_partition(source, destination)
        if source in plan.exempt_hosts or destination in plan.exempt_hosts:
            network._count("exempted")
            return self._inner.call(data, timeout=timeout)
        # One lock block draws the whole exchange's fate, so the stream stays
        # contiguous even if the application shares a connection between
        # threads.
        with network._lock:
            if self._reseeds != network._reseeds:
                # set_loss(seed=...) restarted every stream since our last
                # draw: continue on the stream the new seed derives.
                self._reseeds, self._rng = network._connection_stream(source, self._address)
            # Always the same twelve draws, in this order, so the stream stays
            # aligned between plans that enable different knobs.  A corrupt
            # byte's position is a fraction of the payload, whose length the
            # draw does not know.
            draw = self._rng.random
            request_lost = draw() < plan.loss
            duplicated = draw() < plan.duplicate
            request_corrupt = draw() < plan.corrupt
            request_at = draw()
            request_reorder = draw() < plan.reorder
            request_delay = plan.latency + draw() * plan.jitter
            reply_lost = draw() < plan.loss
            reply_corrupt = draw() < plan.corrupt
            reply_at = draw()
            reply_reorder = draw() < plan.reorder
            reply_delay = plan.latency + draw() * plan.jitter
            reset = draw() < plan.reset
            stats = network._stats
            stats["messages"] += 2
            if request_reorder or reply_reorder:
                stats["reordered"] += 1
            if request_lost:
                stats["lost"] += 1
            elif request_corrupt:
                stats["corrupted"] += 1
        if request_reorder:
            request_delay += plan.reorder_delay
        if reply_reorder:
            reply_delay += plan.reorder_delay
        if request_delay > 0:
            network.clock.sleep(request_delay)
        if request_lost:
            raise CommunicationError(f"chaos: request {source}->{self._address} lost")
        if request_corrupt:
            data = _flip_byte(data, request_at)
        reply = self._inner.call(data, timeout=timeout)
        if duplicated:
            network._count("duplicated")
            try:
                self._inner.call(data, timeout=timeout)
            except CommunicationError:
                pass  # the duplicate's fate is irrelevant to the caller
        if reply_delay > 0:
            network.clock.sleep(reply_delay)
        # The reply crosses the network too: a partition made while the
        # request executed keeps it from the caller.
        network._check_partition(destination, source)
        if reset:
            network._count("resets")
            raise CommunicationError(
                f"chaos: connection {source}->{self._address} reset after execution"
            )
        if reply_lost:
            network._count("lost")
            raise CommunicationError(f"chaos: reply {self._address}->{source} lost")
        with network._lock:
            stats["delivered"] += 2
            if reply_corrupt:
                stats["corrupted"] += 1
        return _flip_byte(reply, reply_at) if reply_corrupt else reply

    def close(self) -> None:
        self._closed = True
        self._inner.close()


class _ChaosHost(Host):
    def __init__(self, network: "ChaosNetwork", inner: Host):
        super().__init__(inner.name)
        self._network = network
        self._inner = inner

    def listen(self, service: str, handler: FrameHandler) -> Listener:
        return self._inner.listen(service, handler)

    def connect(self, address: str) -> Connection:
        split_address(address)
        return _ChaosConnection(
            self._network, self.name, address, self._inner.connect(address)
        )


def _flip_byte(data: bytes, pos_fraction: float) -> bytes:
    """Flip the byte at ``pos_fraction`` of the way through ``data``."""
    if not data:
        return data
    corrupted = bytearray(data)
    index = min(int(pos_fraction * len(corrupted)), len(corrupted) - 1)
    corrupted[index] ^= 0xFF
    return bytes(corrupted)


class ChaosNetwork(Network):
    """Decorate ``inner`` with the faults described by ``plan``.

    Besides the plan, :meth:`set_loss`, :meth:`partition` and :meth:`heal`
    change the faults mid-run, and ``crash`` / ``recover`` go to ``inner``.
    Modelled delays and the crash schedule run on the inner network's clock
    when it has one (an :class:`~repro.net.memory.InMemoryNetwork`'s), else
    on real time.
    """

    def __init__(self, inner: Network, plan: FaultPlan | None = None):
        self.inner = inner
        self.clock: Clock = getattr(inner, "clock", None) or RealClock()
        self._plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._hosts: dict[str, _ChaosHost] = {}
        self._link_counts: dict[tuple[str, str], int] = {}
        self._reseeds = 0  # how many times set_loss restarted the streams
        self._partition_of: dict[str, int] = {}
        self._stats = dict.fromkeys((
            "messages", "delivered", "lost", "duplicated", "corrupted", "resets",
            "reordered", "partition_blocks", "exempted", "crashes", "recoveries",
        ), 0)
        self._started_at: float | None = None
        self._pending_events: list[tuple[float, str, str]] = []

    # -- plan management ---------------------------------------------------

    def set_plan(self, plan: FaultPlan) -> None:
        """Swap the active fault plan (existing RNG streams continue)."""
        with self._lock:
            self._plan = plan
            self._pending_events = sorted(plan.schedule)
            self._started_at = None  # re-anchor the schedule at next message

    def start(self) -> None:
        """Anchor the scheduled crash/recover events at *now*.

        Called lazily on the first message if never called explicitly.
        """
        with self._lock:
            self._started_at = self.clock.now()
            self._pending_events = sorted(self._plan.schedule)

    # -- mid-run injection -------------------------------------------------

    def set_loss(self, probability: float, seed: int | None = None) -> None:
        """Set the plan's loss probability; a ``seed`` restarts every stream."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        with self._lock:
            self._plan = replace(
                self._plan,
                loss=probability,
                seed=self._plan.seed if seed is None else seed,
            )
            if seed is not None:
                # A fresh seed restarts every stream: each live connection
                # re-derives its stream at its next call, so a connection
                # that carried traffic draws what a new one would.
                self._link_counts.clear()
                self._reseeds += 1

    # A partition table is built whole and swapped in, so a message reads it
    # without the lock.
    def partition(self, groups: list[list[str]]) -> None:
        """Split hosts into isolated groups; unlisted hosts join group 0."""
        self._partition_of = {
            host_name: index for index, group in enumerate(groups) for host_name in group
        }

    def heal(self) -> None:
        self._partition_of = {}

    # -- Network interface -------------------------------------------------

    @property
    def threads(self):
        return self.inner.threads

    def host(self, name: str) -> Host:
        with self._lock:
            existing = self._hosts.get(name)
            if existing is None:
                existing = _ChaosHost(self, self.inner.host(name))
                self._hosts[name] = existing
            return existing

    def crash(self, host_name: str) -> None:
        self._count("crashes")
        self.inner.crash(host_name)

    def recover(self, host_name: str) -> None:
        self._count("recoveries")
        self.inner.recover(host_name)

    def close(self) -> None:
        with self._lock:
            self._hosts.clear()
        self.inner.close()

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Snapshot of everything the chaos layer injected so far."""
        with self._lock:
            return dict(self._stats)

    # -- internals ---------------------------------------------------------

    def _connection_stream(self, source: str, address: str) -> tuple[int, random.Random]:
        """A fresh deterministic stream for one connection on one link, with
        the restart count it was derived under.  Called with the lock held."""
        key = (source, address)
        index = self._link_counts.get(key, 0)
        self._link_counts[key] = index + 1
        return self._reseeds, random.Random(f"{self._plan.seed}|{source}->{address}|{index}")

    def _check_partition(self, source: str, destination: str) -> None:
        partition_of = self._partition_of
        if partition_of and partition_of.get(source, 0) != partition_of.get(destination, 0):
            self._count("partition_blocks")
            raise CommunicationError(
                f"chaos: {source} and {destination} are in different partitions"
            )

    def _apply_due_events(self) -> None:
        """Fire the scheduled events now due (called when the plan has any)."""
        due: list[tuple[float, str, str]] = []
        with self._lock:
            if self._started_at is None:
                self._started_at = self.clock.now()
                self._pending_events = sorted(self._plan.schedule)
            elapsed = self.clock.now() - self._started_at
            while self._pending_events and self._pending_events[0][0] <= elapsed:
                due.append(self._pending_events.pop(0))
        for _at, action, host_name in due:
            if action == "crash":
                self.crash(host_name)
            else:
                self.recover(host_name)

    def _count(self, name: str) -> None:
        with self._lock:
            self._stats[name] += 1
