"""Consistent-hash ring of virtual nodes over server groups.

Each group contributes ``vnodes`` points on a 64-bit ring; a key is owned
by the first point clockwise from its hash.  Virtual nodes smooth the
arc-length distribution so groups own near-equal key fractions, and
consistency means membership changes remap only the keys on the affected
arcs — the property that bounds how many objects a group join/leave moves.

The hash is BLAKE2b (stdlib, seeded-process independent): ring placement
must be identical in every process that ever computes it — clients,
servers, and the deployment all derive the same owner for the same key, so
ownership never needs to travel on the wire.  It comes from the builtin
``_blake2`` module, which is where :func:`hashlib.blake2b` comes from too:
importing :mod:`hashlib` would also load OpenSSL's libcrypto, which nothing
on a deployment's path needs until a security micro-protocol is built.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

try:
    from _blake2 import blake2b
except ImportError:  # an interpreter built without the builtin module
    from hashlib import blake2b

#: Virtual nodes per group when ``HashRing`` is given none.
DEFAULT_VNODES = 64


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key`` (BLAKE2b-8)."""
    return int.from_bytes(
        blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Immutable consistent-hash ring mapping keys to group names."""

    __slots__ = ("_groups", "_points", "_owners", "_vnodes")

    def __init__(self, groups: Iterable[str], vnodes: int | None = None):
        self._vnodes = DEFAULT_VNODES if vnodes is None else max(1, int(vnodes))
        self._groups = tuple(sorted(set(groups)))
        points: list[tuple[int, str]] = []
        for group in self._groups:
            for vnode in range(self._vnodes):
                points.append((stable_hash(f"{group}#{vnode}"), group))
        points.sort()
        # Split columns once: bisect runs on the bare point array.
        self._points = tuple(point for point, _ in points)
        self._owners = tuple(owner for _, owner in points)

    # -- queries -------------------------------------------------------------

    @property
    def groups(self) -> tuple[str, ...]:
        return self._groups

    @property
    def vnodes(self) -> int:
        return self._vnodes

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, group: str) -> bool:
        return group in self._groups

    def owner(self, key: str) -> str:
        """The group owning ``key`` (first point clockwise of its hash)."""
        if not self._points:
            raise ValueError("hash ring has no groups")
        index = bisect_right(self._points, stable_hash(key)) % len(self._points)
        return self._owners[index]

    def owners(self, key: str, count: int) -> tuple[str, ...]:
        """Up to ``count`` *distinct* groups clockwise from ``key``.

        The successor-group walk used for fault-domain-spread placement:
        the owner group first, then each subsequent distinct group on the
        ring.  Fewer than ``count`` groups exist → all of them, owner first.
        """
        if not self._points:
            raise ValueError("hash ring has no groups")
        found: list[str] = []
        start = bisect_right(self._points, stable_hash(key))
        total = len(self._points)
        for step in range(total):
            group = self._owners[(start + step) % total]
            if group not in found:
                found.append(group)
                if len(found) >= count:
                    break
        return tuple(found)

    # -- immutable updates ----------------------------------------------------

    def with_group(self, group: str) -> "HashRing":
        if group in self._groups:
            return self
        return HashRing((*self._groups, group), vnodes=self._vnodes)

    def without_group(self, group: str) -> "HashRing":
        if group not in self._groups:
            return self
        return HashRing(
            (name for name in self._groups if name != group), vnodes=self._vnodes
        )

    def __repr__(self) -> str:
        return f"HashRing(groups={self._groups!r}, vnodes={self._vnodes})"
