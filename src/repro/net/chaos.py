"""Chaos-capable transport: deterministic fault injection over any network.

:class:`ChaosNetwork` is a decorator around any :class:`~repro.net.transport.Network`
— the in-memory transport *or* real loopback TCP — that applies a seedable
:class:`FaultPlan` to every message.  This brings :class:`~repro.net.tcp.TcpNetwork`
to fault-injection parity with :class:`~repro.net.memory.InMemoryNetwork`
(which natively supports only its own ``set_loss``/``partition``) and gives
tests a single injection API regardless of the wire underneath::

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
- **latency/jitter** — per-message delay ``latency + U(0, jitter)``;
- **duplicate** — the request is delivered twice (the duplicate's reply is
  discarded), exercising server-side duplicate suppression;
- **reorder** — the message is additionally delayed by ``reorder_delay`` so
  concurrent messages can overtake it (under blocking request/reply,
  reordering is only observable across connections);
- **corrupt** — one byte of the payload is flipped, exercising unmarshalling
  error paths and integrity micro-protocols;
- **reset** — the exchange is aborted *after* the server executed, modelling
  a connection reset between execution and reply delivery;
- **partition** — hosts in different groups cannot exchange messages;
- **schedule** — ``(at_seconds, "crash"|"recover", host)`` events applied on
  the wall clock relative to :meth:`ChaosNetwork.start` (lazily the first
  message), delegated to the inner network's crash injection.

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
import time
from dataclasses import dataclass, replace

from repro.net.transport import Connection, FrameHandler, Host, Listener, Network, split_address
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
    #: ``(at_seconds, "crash"|"recover", host_name)`` wall-clock events.
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


@dataclass
class ChaosStats:
    """Counters over everything the chaos layer did (thread-safe snapshot)."""

    messages: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0
    corrupted: int = 0
    resets: int = 0
    reordered: int = 0
    partition_blocks: int = 0
    exempted: int = 0
    crashes: int = 0
    recoveries: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class _Fate:
    """The drawn fault decisions for one request/reply exchange."""

    request_lost: bool
    request_delay: float
    request_duplicated: bool
    request_corrupt: bool
    #: Byte position to flip, as a fraction of the payload length (the
    #: length is unknown at draw time; a fraction keeps the draw count fixed).
    request_corrupt_pos: float
    reply_lost: bool
    reply_delay: float
    reply_corrupt: bool
    reply_corrupt_pos: float
    reset: bool


class _ChaosListener(Listener):
    def __init__(self, inner: Listener):
        self._inner = inner

    @property
    def address(self) -> str:
        return self._inner.address

    def close(self) -> None:
        self._inner.close()


class _ChaosConnection(Connection):
    def __init__(self, network: "ChaosNetwork", source_host: str, address: str, inner: Connection):
        self._network = network
        self._source = source_host
        self._address = address
        self._destination, _ = split_address(address)
        self._inner = inner
        self._reseeds, self._rng = network._connection_stream(source_host, address)
        self._closed = False

    # One lock-held draw per call keeps the stream contiguous even if the
    # application shares a connection between threads.
    def _draw_fate(self, plan: FaultPlan) -> _Fate:
        rng = self._rng
        # Always consume the same number of draws per message so the stream
        # stays aligned between plans that enable different knobs.
        request_lost = rng.random() < plan.loss
        request_dup = rng.random() < plan.duplicate
        request_corrupt = rng.random() < plan.corrupt
        request_corrupt_pos = rng.random()
        request_reorder = rng.random() < plan.reorder
        request_jitter = rng.random() * plan.jitter
        reply_lost = rng.random() < plan.loss
        reply_corrupt = rng.random() < plan.corrupt
        reply_corrupt_pos = rng.random()
        reply_reorder = rng.random() < plan.reorder
        reply_jitter = rng.random() * plan.jitter
        reset = rng.random() < plan.reset
        request_delay = plan.latency + request_jitter
        reply_delay = plan.latency + reply_jitter
        if request_reorder:
            request_delay += plan.reorder_delay
        if reply_reorder:
            reply_delay += plan.reorder_delay
        if request_reorder or reply_reorder:
            self._network._count("reordered")
        return _Fate(
            request_lost=request_lost,
            request_delay=request_delay,
            request_duplicated=request_dup,
            request_corrupt=request_corrupt,
            request_corrupt_pos=request_corrupt_pos,
            reply_lost=reply_lost,
            reply_delay=reply_delay,
            reply_corrupt=reply_corrupt,
            reply_corrupt_pos=reply_corrupt_pos,
            reset=reset,
        )

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        if self._closed:
            raise CommunicationError("connection is closed")
        network = self._network
        network._apply_due_events()
        network._check_partition(self._source, self._destination)
        plan = network.plan
        if network._is_exempt(plan, self._source, self._destination):
            network._count("exempted")
            return self._inner.call(data, timeout=timeout)
        with network._rng_lock:
            if self._reseeds != network._reseeds:
                # set_loss(seed=...) restarted every stream since our last
                # draw: continue on the stream the new seed derives.
                self._reseeds, self._rng = network._connection_stream(
                    self._source, self._address
                )
            fate = self._draw_fate(plan)
        network._count("messages", 2)
        if fate.request_delay > 0:
            time.sleep(fate.request_delay)
        if fate.request_lost:
            network._count("lost")
            raise CommunicationError(
                f"chaos: request {self._source}->{self._address} lost"
            )
        payload = (
            _flip_byte(data, fate.request_corrupt_pos) if fate.request_corrupt else data
        )
        if fate.request_corrupt:
            network._count("corrupted")
        reply = self._inner.call(payload, timeout=timeout)
        if fate.request_duplicated:
            network._count("duplicated")
            try:
                self._inner.call(payload, timeout=timeout)
            except CommunicationError:
                pass  # the duplicate's fate is irrelevant to the caller
        if fate.reply_delay > 0:
            time.sleep(fate.reply_delay)
        if fate.reset:
            network._count("resets")
            raise CommunicationError(
                f"chaos: connection {self._source}->{self._address} reset after execution"
            )
        if fate.reply_lost:
            network._count("lost")
            raise CommunicationError(
                f"chaos: reply {self._address}->{self._source} lost"
            )
        if fate.reply_corrupt:
            network._count("corrupted")
            reply = _flip_byte(reply, fate.reply_corrupt_pos)
        network._count("delivered", 2)
        return reply

    def close(self) -> None:
        self._closed = True
        self._inner.close()


class _ChaosHost(Host):
    def __init__(self, network: "ChaosNetwork", inner: Host):
        super().__init__(inner.name)
        self._network = network
        self._inner = inner

    def listen(self, service: str, handler: FrameHandler) -> Listener:
        return _ChaosListener(self._inner.listen(service, handler))

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

    Exposes the :class:`~repro.net.memory.InMemoryNetwork` injection surface
    (``set_loss``, ``partition``, ``heal``) so fixtures written against the
    in-memory network run unchanged over chaos-wrapped TCP.
    """

    def __init__(self, inner: Network, plan: FaultPlan | None = None):
        self.inner = inner
        self._plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._rng_lock = threading.Lock()
        self._hosts: dict[str, _ChaosHost] = {}
        self._link_counts: dict[tuple[str, str], int] = {}
        self._reseeds = 0  # how many times set_loss restarted the streams
        self._partition_of: dict[str, int] = {}
        self._stats = ChaosStats()
        self._started_at: float | None = None
        self._pending_events: list[tuple[float, str, str]] = []

    # -- plan management ---------------------------------------------------

    @property
    def plan(self) -> FaultPlan:
        with self._lock:
            return self._plan

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
            self._started_at = time.monotonic()
            self._pending_events = sorted(self._plan.schedule)

    # -- InMemoryNetwork-parity injection API ------------------------------

    def set_loss(self, probability: float, seed: int | None = None) -> None:
        """Parity with :meth:`InMemoryNetwork.set_loss` (reseeds streams)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        with self._lock:
            self._plan = replace(
                self._plan,
                loss=probability,
                seed=self._plan.seed if seed is None else seed,
            )
            if seed is not None:
                # A fresh seed restarts every stream, as the in-memory
                # network restarts its single PRNG: each live connection
                # re-derives its stream at its next call.
                self._link_counts.clear()
                self._reseeds += 1

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
            return self._stats.as_dict()

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = ChaosStats()

    # -- internals ---------------------------------------------------------

    def _connection_stream(self, source: str, address: str) -> tuple[int, random.Random]:
        """A fresh deterministic stream for one connection on one link, with
        the restart count it was derived under."""
        with self._lock:
            key = (source, address)
            index = self._link_counts.get(key, 0)
            self._link_counts[key] = index + 1
            seed = self._plan.seed
            reseeds = self._reseeds
        return reseeds, random.Random(f"{seed}|{source}->{address}|{index}")

    def _is_exempt(self, plan: FaultPlan, source: str, destination: str) -> bool:
        return source in plan.exempt_hosts or destination in plan.exempt_hosts

    def _check_partition(self, source: str, destination: str) -> None:
        with self._lock:
            if not self._partition_of:
                return
            src_group = self._partition_of.get(source, 0)
            dst_group = self._partition_of.get(destination, 0)
            blocked = src_group != dst_group
            if blocked:
                self._stats.partition_blocks += 1
        if blocked:
            raise CommunicationError(
                f"chaos: {source} and {destination} are in different partitions"
            )

    def _apply_due_events(self) -> None:
        due: list[tuple[float, str, str]] = []
        with self._lock:
            if not self._pending_events and not self._plan.schedule:
                return
            if self._started_at is None:
                self._started_at = time.monotonic()
                self._pending_events = sorted(self._plan.schedule)
            elapsed = time.monotonic() - self._started_at
            while self._pending_events and self._pending_events[0][0] <= elapsed:
                due.append(self._pending_events.pop(0))
        for _at, action, host_name in due:
            if action == "crash":
                self.crash(host_name)
            else:
                self.recover(host_name)

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self._stats, name, getattr(self._stats, name) + amount)
