"""Composite protocols and the micro-protocol base class.

A :class:`CompositeProtocol` owns a namespace of events, a runtime, shared
data, and a set of started micro-protocols.  A :class:`MicroProtocol`
implements one service property as event handlers; its ``start()`` binds
them and ``stop()`` unbinds them, so configurations can also change during
execution (the dynamic-customization path).

Raise modes:

- ``composite.raise_event(name, *args)`` — blocking: handlers run in the
  calling thread; the call returns when all (non-halted) handlers have run;
- ``mode="async"`` — non-blocking: handlers run on the runtime pool, at the
  caller's priority unless ``priority=`` is given (the paper's modified
  raise operation);
- ``delay=seconds`` — time-driven execution; returns a future, like
  ``mode="async"``.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Any, Callable, Iterable

from repro.cactus.events import (
    Binding,
    Event,
    Handler,
    ORDER_DEFAULT,
    current_event,
    validate_event_name,
)
from repro.cactus.runtime import CactusRuntime
from repro.util.concurrency import ResultFuture
from repro.util.errors import ConfigurationError


class SharedData:
    """A small thread-safe key/value store shared by micro-protocols."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._data: dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.get(key, default)

    def set(self, key: str, value: Any) -> None:
        with self._lock:
            self._data[key] = value

    def setdefault(self, key: str, value: Any) -> Any:
        with self._lock:
            return self._data.setdefault(key, value)

    def update(self, key: str, fn: Callable[[Any], Any], default: Any = None) -> Any:
        """Atomically replace ``key`` with ``fn(current)``; returns the new value."""
        with self._lock:
            new_value = fn(self._data.get(key, default))
            self._data[key] = new_value
            return new_value

    def pop(self, key: str, default: Any = None) -> Any:
        with self._lock:
            return self._data.pop(key, default)

    @property
    def lock(self) -> threading.RLock:
        """The store's lock, for multi-key critical sections."""
        return self._lock


class CompositeProtocol:
    """A container of micro-protocols coordinating through events."""

    def __init__(self, name: str, runtime: CactusRuntime | None = None):
        self.name = name
        self.runtime = runtime or CactusRuntime(name=f"{name}-rt")
        self.shared = SharedData()
        self._events: dict[str, Event] = {}
        self._events_lock = threading.Lock()
        self._micro_protocols: dict[str, "MicroProtocol"] = {}
        self._mp_lock = threading.Lock()
        # Causality tracing (Figure 3 reproduction).
        self._trace_lock = threading.Lock()
        self._tracing = False
        self._trace_edges: set[tuple[str, str]] = set()

    # -- events ----------------------------------------------------------

    def event(self, name: str) -> Event:
        """Return the event named ``name``, creating it on first use."""
        # Lock-free hit: the dict is only ever grown, and dict reads are
        # atomic under the GIL; creation double-checks under the lock.
        event = self._events.get(name)
        if event is not None:
            return event
        validate_event_name(name)
        with self._events_lock:
            event = self._events.get(name)
            if event is None:
                event = Event(self, name)
                self._events[name] = event
            return event

    def bind(
        self,
        event_name: str,
        handler: Handler,
        order: int = ORDER_DEFAULT,
        static_args: tuple = (),
    ) -> Binding:
        return self.event(event_name).bind(handler, order=order, static_args=static_args)

    def raise_event(
        self,
        event_name: str,
        *args: Any,
        mode: str = "blocking",
        delay: float = 0.0,
        priority: int | None = None,
    ) -> ResultFuture | None:
        """Raise an event (see module docstring for modes).

        Returns None for blocking raises and a future for async or delayed
        ones.
        """
        event = self._events.get(event_name)  # events are only ever added
        if event is None:
            event = self.event(event_name)
        if mode == "blocking" and delay <= 0.0:
            event.raise_blocking(*args)
            return None
        if mode != "blocking" and mode != "async":
            raise ConfigurationError(f"unknown raise mode {mode!r}")
        parent = current_event(self)
        if self._tracing:
            self._record_edge(parent, event_name)
        event.raise_count += 1
        run = partial(event.raise_blocking, *args, parent=parent)
        if delay > 0.0:
            return self.runtime.submit_delayed(delay, run, priority=priority)
        return self.runtime.submit(run, priority=priority)

    # -- micro-protocols ----------------------------------------------------

    def add_micro_protocol(self, micro_protocol: "MicroProtocol") -> "MicroProtocol":
        """Install and start a micro-protocol (also the dynamic-load path)."""
        with self._mp_lock:
            if micro_protocol.name in self._micro_protocols:
                raise ConfigurationError(
                    f"micro-protocol {micro_protocol.name!r} already configured in {self.name}"
                )
            self._micro_protocols[micro_protocol.name] = micro_protocol
        micro_protocol._attach(self)
        micro_protocol.start()
        return micro_protocol

    def configure(self, micro_protocols: Iterable["MicroProtocol"]) -> None:
        """Static customization: install a whole configuration at once."""
        for micro_protocol in micro_protocols:
            self.add_micro_protocol(micro_protocol)

    def remove_micro_protocol(self, name: str) -> None:
        with self._mp_lock:
            micro_protocol = self._micro_protocols.pop(name, None)
        if micro_protocol is not None:
            micro_protocol.stop()

    def micro_protocol(self, name: str) -> "MicroProtocol":
        with self._mp_lock:
            micro_protocol = self._micro_protocols.get(name)
        if micro_protocol is None:
            raise ConfigurationError(f"no micro-protocol {name!r} in {self.name}")
        return micro_protocol

    def micro_protocol_names(self) -> list[str]:
        with self._mp_lock:
            return sorted(self._micro_protocols)

    def shutdown(self) -> None:
        with self._mp_lock:
            micro_protocols = list(self._micro_protocols.values())
            self._micro_protocols.clear()
        for micro_protocol in micro_protocols:
            micro_protocol.stop()

    # -- tracing ---------------------------------------------------------------

    def enable_tracing(self) -> None:
        with self._trace_lock:
            self._tracing = True
            self._trace_edges.clear()

    def trace_edges(self) -> set[tuple[str, str]]:
        """Observed (raising event -> raised event) causal edges."""
        with self._trace_lock:
            return set(self._trace_edges)

    def _record_edge(self, parent: str | None, child: str) -> None:
        if parent is None:
            return
        with self._trace_lock:
            if self._tracing:
                self._trace_edges.add((parent, child))

    # -- observability -----------------------------------------------------

    def event_stats(self) -> dict[str, int]:
        """Raise counts per event name since creation (or the last reset).

        Counters live on the events themselves (maintained without a lock
        on the raise path): exact for causally-serial flows, best-effort
        when one event is raised from many threads at once.
        """
        with self._events_lock:
            events = list(self._events.values())
        return {event.name: event.raise_count for event in events if event.raise_count}

    def reset_event_stats(self) -> None:
        with self._events_lock:
            for event in self._events.values():
                event.raise_count = 0

    def protocol_stats(self) -> dict[str, dict[str, int]]:
        """Per-micro-protocol counters (only protocols that counted anything).

        The second observability surface next to :meth:`event_stats`:
        micro-protocols report what they *did* (retries, breaker trips,
        deadline sheds, stale serves, …) via :meth:`MicroProtocol.incr`, and
        experiments chart availability from these numbers.
        """
        with self._mp_lock:
            micro_protocols = list(self._micro_protocols.values())
        stats = {}
        for micro_protocol in micro_protocols:
            counters = micro_protocol.stats()
            if counters:
                stats[micro_protocol.name] = counters
        return stats


class MicroProtocol:
    """Base class for micro-protocols.

    Subclasses implement :meth:`start` by calling :meth:`bind` for each
    handler; bindings are tracked so :meth:`stop` (and therefore dynamic
    reconfiguration) cleans up automatically.
    """

    #: Default instance name; instances may override via constructor.
    name = "micro-protocol"

    def __init__(self, name: str | None = None):
        if name is not None:
            self.name = name
        self._composite: CompositeProtocol | None = None
        self._bindings: list[Binding] = []
        self._counters: dict[str, int] = {}
        self._counters_lock = threading.Lock()

    def _attach(self, composite: CompositeProtocol) -> None:
        self._composite = composite

    @property
    def composite(self) -> CompositeProtocol:
        if self._composite is None:
            raise ConfigurationError(
                f"micro-protocol {self.name!r} is not attached to a composite"
            )
        return self._composite

    @property
    def shared(self) -> SharedData:
        return self.composite.shared

    def bind(
        self,
        event_name: str,
        handler: Handler,
        order: int = ORDER_DEFAULT,
        static_args: tuple = (),
    ) -> Binding:
        binding = self.composite.bind(event_name, handler, order=order, static_args=static_args)
        self._bindings.append(binding)
        return binding

    def raise_event(self, event_name: str, *args: Any, **kwargs: Any):
        return self.composite.raise_event(event_name, *args, **kwargs)

    def start(self) -> None:
        """Bind handlers.  Subclasses override."""

    def stop(self) -> None:
        """Unbind all handlers bound through :meth:`bind`."""
        for binding in self._bindings:
            binding.unbind()
        self._bindings.clear()

    # -- observability -----------------------------------------------------

    def incr(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter (surfaces in ``composite.protocol_stats()``)."""
        with self._counters_lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def stats(self) -> dict[str, int]:
        """Snapshot of this micro-protocol's counters."""
        with self._counters_lock:
            return dict(self._counters)
