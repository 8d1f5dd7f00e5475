"""Cactus events, bindings, and occurrence execution.

Semantics (from the paper, sections 2.3.1 and 3.1):

- binding attaches a handler to an event with an *order* and optional
  *static arguments* passed on every activation (ActiveRep binds its
  assigner once per server replica, the replica number being the static
  argument);
- raising executes **all** bound handlers in ascending order (ties run in
  binding order);
- a handler may call :meth:`Occurrence.halt`, which prevents handlers bound
  with a **strictly greater** order from running while letting same-order
  peers complete — this is the override mechanism: base handlers bind
  ``ORDER_LAST``, so any earlier handler can replace the default behaviour
  ("the actAssigner handlers override the base assigner by executing before
  it and halting further execution associated with the event").
  :meth:`Occurrence.halt_all` stops everything, including same-order peers;
- handlers see the dynamic arguments of the raise through
  :attr:`Occurrence.args`.

Causal tracing: when enabled on the composite, every ``raise`` records an
edge from the event whose handler performed the raise — the data behind the
Figure 3 reproduction.

Dispatch
--------

``bind``/``unbind`` bump a version and invalidate a copy-on-write
*snapshot*; the raise path reads an immutable pre-compiled handler chain — a
flat tuple of ``(binding, handler, order, static_args)`` — with **no lock
and no list copy** and enters the causality stack once per raise instead
of once per handler.  Every raise with a handler allocates its own
:class:`Occurrence`, so a handler that keeps the one it was given keeps a
truthful object.

A micro-protocol that raises an event on every invocation resolves it once
(``self._ready = composite.event(name)`` in ``start()``) and calls
:meth:`Event.raise_blocking`, one Python frame per raise;
``CompositeProtocol.raise_event(name, ...)`` looks the name up and enters the
same method, as its async and delayed raises do on the runtime's lane.

The paper-shaped interpretation loop (lock, copy the binding list, run
handlers one by one) is the differential oracle in
``tests/oracles/event_reference.py``: tests/unit/test_dispatch_fastpath.py
drives randomized binding sets through both and requires identical handler
sequences and trace edges.
"""

from __future__ import annotations

import itertools
import threading
from bisect import insort
from typing import TYPE_CHECKING, Callable

from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cactus.composite import CompositeProtocol

ORDER_FIRST = 0
ORDER_EARLY = 25
ORDER_DEFAULT = 50
ORDER_LATE = 75
ORDER_LAST = 100

Handler = Callable[..., None]

# Thread-local stack of (composite, event name) currently being handled,
# for causality tracing.  Scoped per composite: with an in-process network
# a server composite's dispatch can run on a thread that is still inside a
# *client* composite's handler, and that cross-composite context must not
# produce edges.
_handling = threading.local()

# ``raise_blocking``'s default parent: look it up on this thread's stack.
_ON_STACK = object()


def _handling_stack() -> list[tuple[object, str]]:
    stack = getattr(_handling, "stack", None)
    if stack is None:
        stack = []
        _handling.stack = stack
    return stack


def current_event(composite: object | None = None) -> str | None:
    """The event this thread is handling (within ``composite``, if given)."""
    stack = _handling_stack()
    if not stack:
        return None
    if composite is None:
        return stack[-1][1]
    owner, name = stack[-1]
    return name if owner is composite else None


class Binding:
    """One handler attached to one event."""

    __slots__ = ("event", "handler", "order", "static_args", "id", "_active")

    _ids = itertools.count(1)

    def __init__(self, event: "Event", handler: Handler, order: int, static_args: tuple):
        self.event = event
        self.handler = handler
        self.order = order
        self.static_args = static_args
        self.id = next(Binding._ids)
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    def unbind(self) -> None:
        """Detach this handler from the event.  Idempotent.

        Takes effect immediately, including for raises already in flight:
        the executor re-checks ``active`` before each activation.
        """
        if self._active:
            self._active = False
            self.event._remove(self)

    def __repr__(self) -> str:
        name = getattr(self.handler, "__name__", repr(self.handler))
        return f"Binding({self.event.name}, {name}, order={self.order})"


def _binding_sort_key(binding: Binding) -> tuple[int, int]:
    return (binding.order, binding.id)


class Occurrence:
    """One raise of an event: the object handlers receive first.

    Halt state is *truthful*: :attr:`halted` / :attr:`halted_all` report
    whether any handler of this raise called :meth:`halt` /
    :meth:`halt_all`, and stay set after the raise completes.  The
    executor tracks its chaining decisions in local variables instead of
    mutating this public state back and forth.
    """

    __slots__ = ("event", "args", "parent_event", "_halt", "_halt_all")

    def __init__(self, event: "Event", args: tuple, parent_event: str | None):
        self.event = event
        self.args = args
        self.parent_event = parent_event
        self._halt = False
        self._halt_all = False

    @property
    def composite(self) -> "CompositeProtocol":
        return self.event.composite

    def halt(self) -> None:
        """Skip handlers bound with a strictly greater order (override)."""
        self._halt = True

    def halt_all(self) -> None:
        """Skip every remaining handler, including same-order peers."""
        self._halt = True
        self._halt_all = True

    @property
    def halted(self) -> bool:
        """True once any handler of this raise called ``halt`` (or ``halt_all``)."""
        return self._halt

    @property
    def halted_all(self) -> bool:
        """True once any handler of this raise called ``halt_all``."""
        return self._halt_all


class Event:
    """A named event owned by a composite protocol.

    Mutation (``bind``/``unbind``) happens under ``_lock`` on the sorted
    ``_bindings`` list and *invalidates* the compiled snapshot by bumping
    ``_version`` and setting ``_dirty``.  The snapshot — an immutable
    ``(binding, handler, order, static_args)`` tuple — is rebuilt lazily on
    the next raise (or introspection), under the same lock.  Raises
    therefore observe a consistent point-in-time binding set without taking
    the lock or copying a list, and a configure()-time burst of N binds
    compiles the chain once, not N times.
    """

    def __init__(self, composite: "CompositeProtocol", name: str):
        self.composite = composite
        self.name = name
        self._lock = threading.Lock()
        self._bindings: list[Binding] = []  # kept sorted by (order, id)
        self._version = 0
        self._dirty = False
        self._chain: tuple[tuple[Binding, Handler, int, tuple], ...] = ()
        # Shared, pre-allocated causality-stack entry for every raise.
        self._stack_entry = (composite, name)
        #: Raises since creation (or the last stats reset).  Maintained
        #: without a lock: exact for the causally-serial flows experiments
        #: assert on, best-effort under truly concurrent raises.
        self.raise_count = 0

    @property
    def version(self) -> int:
        """Monotonic binding-set version (bumped by every bind/unbind)."""
        with self._lock:
            return self._version

    def bind(self, handler: Handler, order: int = ORDER_DEFAULT, static_args: tuple = ()) -> Binding:
        """Attach ``handler``; it runs on every raise as
        ``handler(occurrence, *static_args)``."""
        binding = Binding(self, handler, order, tuple(static_args))
        with self._lock:
            # Ids are monotonic, so insort lands a new binding after its
            # same-order peers: O(n) insert, no full re-sort per bind.
            insort(self._bindings, binding, key=_binding_sort_key)
            self._invalidate_locked()
        return binding

    def _remove(self, binding: Binding) -> None:
        with self._lock:
            if binding in self._bindings:
                self._bindings.remove(binding)
                self._invalidate_locked()

    def _invalidate_locked(self) -> None:
        self._version += 1
        self._dirty = True

    def _refresh_chain(self) -> tuple[tuple[Binding, Handler, int, tuple], ...]:
        """Rebuild the compiled chain from the current binding list."""
        with self._lock:
            if self._dirty:
                chain = tuple(
                    (b, b.handler, b.order, b.static_args) for b in self._bindings
                )
                self._chain = chain
                self._dirty = False
            return self._chain

    def bindings(self) -> list[Binding]:
        with self._lock:
            return list(self._bindings)

    def handler_count(self) -> int:
        with self._lock:
            return len(self._bindings)

    # -- raising ---------------------------------------------------------

    def raise_blocking(self, *args, parent: str | None | object = _ON_STACK) -> Occurrence | None:
        """Raise this event: run its handlers in the calling thread.

        The one executor body: immutable snapshot, no lock, one stack
        entry.  The event being handled on this thread, if it belongs to the
        same composite, is the causal parent (and a trace edge while tracing
        is on).  An async or delayed raise passes the ``parent`` it captured
        when it was raised, where it was also counted and traced.

        Returns the occurrence so callers can inspect halt state; an event
        nobody handles allocates none and returns None.
        """
        try:
            stack = _handling.stack
        except AttributeError:  # this thread's first raise
            stack = _handling.stack = []
        if parent is _ON_STACK:
            parent = None
            if stack:
                owner, parent = stack[-1]
                if owner is not self.composite:
                    parent = None
                elif owner._tracing:
                    owner._record_edge(parent, self.name)
            self.raise_count += 1
        chain = self._chain
        if self._dirty:
            chain = self._refresh_chain()
        if not chain:
            return None
        occurrence = Occurrence(self, args, parent)
        stack.append(self._stack_entry)
        entries = iter(chain)
        try:
            for binding, handler, order, static_args in entries:
                if not binding._active:
                    continue
                if static_args:
                    handler(occurrence, *static_args)
                else:
                    handler(occurrence)
                if occurrence._halt:  # halt_all implies halt: one read
                    if occurrence._halt_all:
                        break
                    # halt(): finish same-order peers, skip the rest.
                    # Only the first halt sets the threshold, so later
                    # halt() calls in the tail are no-ops (as before).
                    threshold = order
                    for binding, handler, order, static_args in entries:
                        if order > threshold:
                            break
                        if not binding._active:
                            continue
                        if static_args:
                            handler(occurrence, *static_args)
                        else:
                            handler(occurrence)
                        if occurrence._halt_all:
                            break
                    break
        finally:
            stack.pop()
        return occurrence

    def __repr__(self) -> str:
        return f"Event({self.name}, handlers={self.handler_count()})"


def validate_event_name(name: str) -> str:
    if not name or not isinstance(name, str):
        raise ConfigurationError(f"invalid event name: {name!r}")
    return name
