"""Shared keys, standing in for out-of-band key distribution.

The paper assumes clients and servers already share keys (key distribution
is listed as a *possible additional* micro-protocol, not part of the
prototype).  That assumption is made explicit by constructing both sides'
micro-protocols with the same key (:func:`resolve_key`).
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError


def resolve_key(key: bytes | None, key_hex: str | None, owner: str) -> bytes:
    """The key micro-protocol ``owner`` was configured with: raw or as hex
    text (what a configuration's wire form can carry), exactly one of the two."""
    if key is not None and key_hex is not None:
        raise ConfigurationError("pass either key or key_hex, not both")
    if key_hex is not None:
        key = bytes.fromhex(key_hex)
    if key is None:
        raise ConfigurationError(f"{owner} requires a key (key= or key_hex=)")
    return key
