"""The event interpretation loop ``repro.cactus.events.Event`` had before the
compiled chain replaced it: find the causal parent by asking the thread's
stack, take the binding lock, copy the binding list, run the handlers one by
one with a causality push/pop around each.  Kept as the differential oracle:
a :class:`ReferenceComposite` is a ``CompositeProtocol`` in every other
respect (binding, raise modes, tracing, micro-protocols), so the same script
can be run through both and must give the same handler sequence, halt state,
trace edges and raise counts."""

from __future__ import annotations

from repro.cactus.composite import CompositeProtocol
from repro.cactus.events import (
    _ON_STACK,
    Event,
    Occurrence,
    _handling_stack,
    current_event,
    validate_event_name,
)


class ReferenceEvent(Event):
    def raise_blocking(self, *args, parent=_ON_STACK) -> Occurrence:
        if parent is _ON_STACK:
            parent = current_event(self.composite)
            if parent is not None and self.composite._tracing:
                self.composite._record_edge(parent, self.name)
            self.raise_count += 1
        occurrence = Occurrence(self, args, parent)
        snapshot = self.bindings()
        stack = _handling_stack()
        halted_after: int | None = None  # order threshold set by halt()
        for binding in snapshot:
            if not binding.active:
                continue
            if halted_after is not None and binding.order > halted_after:
                break
            stack.append((self.composite, self.name))
            try:
                binding.handler(occurrence, *binding.static_args)
            finally:
                stack.pop()
            if occurrence._halt_all:
                break  # halt_all(): nothing else runs, not even peers
            if occurrence._halt and halted_after is None:
                # halt(): let same-order peers run, stop later orders.
                halted_after = binding.order
        return occurrence


class ReferenceComposite(CompositeProtocol):
    """A composite whose every event runs the interpretation loop."""

    def event(self, name: str) -> Event:
        validate_event_name(name)
        with self._events_lock:
            event = self._events.get(name)
            if event is None:
                event = self._events[name] = ReferenceEvent(self, name)
            return event
