"""Shared-key store standing in for out-of-band key distribution.

The paper assumes clients and servers already share keys (key distribution
is listed as a *possible additional* micro-protocol, not part of the
prototype).  :class:`KeyStore` is that assumption made explicit: a named map
of symmetric keys that both sides of a deployment are constructed with.
"""

from __future__ import annotations

import os
import threading

from repro.util.errors import ConfigurationError


def resolve_key(key: bytes | None, key_hex: str | None, owner: str) -> bytes:
    """The key micro-protocol ``owner`` was configured with: raw or as hex
    text (what a configuration file can carry), exactly one of the two."""
    if key is not None and key_hex is not None:
        raise ConfigurationError("pass either key or key_hex, not both")
    if key_hex is not None:
        key = bytes.fromhex(key_hex)
    if key is None:
        raise ConfigurationError(f"{owner} requires a key (key= or key_hex=)")
    return key


class KeyStore:
    """A thread-safe named store of symmetric keys.

    >>> ks = KeyStore()
    >>> key = ks.generate("bank-des", length=8)
    >>> ks.get("bank-des") == key
    True
    """

    def __init__(self, keys: dict[str, bytes] | None = None):
        self._lock = threading.Lock()
        self._keys: dict[str, bytes] = dict(keys or {})

    def add(self, name: str, key: bytes) -> None:
        """Install a key under ``name`` (replacing any existing key)."""
        with self._lock:
            self._keys[name] = bytes(key)

    def generate(self, name: str, length: int = 16) -> bytes:
        """Generate, install, and return a random key of ``length`` bytes."""
        key = os.urandom(length)
        self.add(name, key)
        return key

    def get(self, name: str) -> bytes:
        """Return the key named ``name``; raise if absent."""
        with self._lock:
            key = self._keys.get(name)
        if key is None:
            raise ConfigurationError(f"no key named {name!r} in key store")
        return key

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._keys

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._keys)
