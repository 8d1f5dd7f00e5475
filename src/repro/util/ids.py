"""Unique identifier generation.

Request ids, connection ids and event-occurrence ids all come from here.
Ids are process-unique, monotonically increasing, and cheap; where global
uniqueness matters (request ids crossing hosts in the simulated network) the
id is qualified with a caller-supplied namespace string.
"""

from __future__ import annotations

import itertools


class IdGenerator:
    """Thread-safe monotonically increasing integer ids with a namespace.

    An id is one ``next()`` on an :func:`itertools.count`, a single C call
    the GIL makes atomic, so no two threads ever draw the same number.

    >>> gen = IdGenerator("client-1")
    >>> gen.next_int()
    1
    >>> gen.next_id()
    'client-1:2'
    """

    def __init__(self, namespace: str = ""):
        self.namespace = namespace
        self._counter = itertools.count(1)

    def next_int(self) -> int:
        """Return the next integer id."""
        return next(self._counter)

    def next_id(self) -> str:
        """Return the next id qualified with this generator's namespace."""
        return f"{self.namespace}:{next(self._counter)}"


_global = IdGenerator("g")


def unique_id(prefix: str = "id") -> str:
    """Return a process-unique string id with the given prefix."""
    return f"{prefix}-{_global.next_int()}"
