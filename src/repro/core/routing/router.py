"""The shard router: one mutable cell of routing knowledge per process side.

The router holds the current :class:`~repro.core.routing.view.DirectoryView`
and is what the invocation kernel consults on every bind/rebind:

- **reads are lock-free** — ``view()`` is one attribute read of an
  immutable snapshot; ``route()`` resolves an object's logical replica
  numbers against it;
- **writers are serialized** — ``apply()`` installs a strictly
  newer-versioned view (view versions are monotonic by construction; a
  regression is a programming error and raises);
- **clients pull deltas via piggyback** — a client stamps the version of
  its view on every sharded send, a server stamps
  ``delta_since(client_version)`` onto the reply envelope, and the client
  feeds it to ``apply_delta()``.  A delta that cannot be parsed into a
  view (history evicted, base version mismatch without a full view,
  malformed wire input) returns ``False`` and the caller falls back to
  bootstrap re-enumeration.

A client router is a view, not a ledger: nothing counts the invocations
that routed with a version.  Zero-drop rebalancing is the server's job —
the shard space installs the new owner, flips its authoritative view,
drains the old mount's *server-side* in-flight count and retires it, and a
stale client reaching the retired mount gets a ``ShardMovedError`` it
follows to the new owner (:mod:`repro.core.shardspace`).
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.core.routing.view import DirectoryView
from repro.util.errors import ConfigurationError

#: How many past view wire-forms the router keeps for incremental deltas.
DELTA_HISTORY = 32


class ShardRouter:
    """Holds the current directory view; readers lock-free, writers locked."""

    def __init__(self, view: DirectoryView | None = None):
        self._view = view if view is not None else DirectoryView()
        self._lock = threading.Lock()
        self._history: dict[int, dict] = {self._view.version: self._view.to_wire()}

    # -- lock-free read side ---------------------------------------------------

    def view(self) -> DirectoryView:
        """The current immutable view (one attribute read, no lock)."""
        return self._view

    @property
    def sharded(self) -> bool:
        return self._view.sharded

    def route(self, object_id: str) -> tuple[int, ...]:
        """The logical replica numbers serving ``object_id`` right now."""
        return self._view.replicas_for(object_id)

    def live_replicas(self, object_id: str) -> tuple[int, ...]:
        """``route()`` minus replicas hosted on failed members (may be empty)."""
        view = self._view
        if not view.sharded:
            return view.replicas_for(object_id)
        failed = view.failed
        return tuple(
            logical
            for logical, member in view.assignments(object_id)
            if member not in failed
        )

    # -- write side ------------------------------------------------------------

    def apply(self, view: DirectoryView) -> DirectoryView:
        """Install a strictly newer view; returns it.

        Version regressions raise — views are monotonic by construction
        (every builder bumps), so an older version here means two writers
        raced outside the router, which is a bug to surface, not mask.
        """
        with self._lock:
            current = self._view
            if view.version <= current.version:
                raise ValueError(
                    f"view version must increase (current {current.version}, "
                    f"got {view.version})"
                )
            self._view = view
            self._history[view.version] = view.to_wire()
            while len(self._history) > DELTA_HISTORY:
                del self._history[min(self._history)]
        return view

    def apply_membership_change(self, failed: Iterable[int]) -> DirectoryView:
        """Record the failure detector's new failed set (bumps the version)."""
        with self._lock:
            current = self._view
        updated = current.with_failed(failed)
        if updated is current:
            return current
        return self.apply(updated)

    # -- piggyback deltas --------------------------------------------------------

    def delta_since(self, version: int) -> dict | None:
        """The wire delta bringing a client at ``version`` current, or None."""
        view = self._view
        if version >= view.version:
            return None
        with self._lock:
            base = self._history.get(version)
            current_wire = self._history.get(view.version) or view.to_wire()
        if base is None:
            # History evicted: ship the full view.
            return {"from": version, "to": view.version, "view": current_wire}
        changes = {
            key: value
            for key, value in current_wire.items()
            if key != "version" and base.get(key) != value
        }
        return {"from": version, "to": view.version, "changes": changes}

    def apply_delta(self, delta: dict) -> bool:
        """Apply a piggyback-pulled delta; False → fall back to bootstrap.

        Stale deltas (``to`` not newer than the current version) are
        swallowed successfully — replies may arrive reordered.  The delta
        is wire input: one that cannot be parsed into a view — a missing
        or mistyped field, a view the :class:`DirectoryView` constructor
        refuses — is ``False`` like an unappliable one, never an exception
        escaping into a reply whose servant already ran.
        """
        current = self._view
        try:
            to_version = int(delta["to"])
            if to_version <= current.version:
                return True
            if "view" in delta:
                new_view = DirectoryView.from_wire(delta["view"])
            elif int(delta["from"]) == current.version:
                wire = current.to_wire()
                wire.update(delta["changes"])
                wire["version"] = to_version
                new_view = DirectoryView.from_wire(wire)
            else:
                return False
        except (LookupError, TypeError, ValueError, AttributeError, ConfigurationError):
            return False
        try:
            self.apply(new_view)
        except ValueError:
            return True  # lost a race to a newer view — still current
        return True
