"""Unique identifier generation.

Request ids, connection ids and event-occurrence ids all come from here.
Ids are process-unique, monotonically increasing, and cheap; where global
uniqueness matters (request ids crossing hosts in the simulated network) the
caller qualifies the id with a prefix (:func:`unique_id`).
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Thread-safe monotonically increasing integer ids.

    An id is one ``next()`` on an :func:`itertools.count`, a single C call
    the GIL makes atomic, so no two threads ever draw the same number.

    >>> gen = IdGenerator()
    >>> gen.next_int()
    1
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def next_int(self) -> int:
        """Return the next integer id."""
        return next(self._counter)


_global = IdGenerator()


def unique_id(prefix: str = "id") -> str:
    """Return a process-unique string id with the given prefix."""
    return f"{prefix}-{_global.next_int()}"
