"""The event interpretation loop ``repro.cactus.events.Event`` had before the
compiled chain replaced it: take the binding lock, copy the binding list,
run the handlers one by one with a causality push/pop around each.  Kept as
the differential oracle: a :class:`ReferenceComposite` is a
``CompositeProtocol`` in every other respect (binding, raise modes, tracing,
micro-protocols), so the same script can be run through both and must give
the same handler sequence, halt state and trace edges.  ``raise_blocking``
is inherited: parent lookup and ``raise_count`` are the same code on both
sides, only the executor body differs."""

from __future__ import annotations

from repro.cactus.composite import CompositeProtocol
from repro.cactus.events import (
    Event,
    Occurrence,
    _handling_stack,
    validate_event_name,
)


class ReferenceEvent(Event):
    def _execute(
        self,
        args: tuple,
        parent_event: str | None,
        stack: list | None = None,
    ) -> Occurrence:
        occurrence = Occurrence(self, args, parent_event)
        snapshot = self.bindings()
        if stack is None:
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
