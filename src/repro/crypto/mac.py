"""HMAC construction (RFC 2104) for the signature-based integrity scheme.

The paper's integrity micro-protocol signs the request parameters and reply
value.  With only symmetric keys in the prototype, a keyed MAC is the
signature scheme: we implement the HMAC construction explicitly over a
hash object (the hash primitive is the only borrowed piece; the
construction itself, including key normalization and the ipad/opad scheme,
is spelled out here).  :class:`KeyedMac` does the part that depends only on
the key once: a digest is a copy of two keyed hash states plus the message.

:mod:`hashlib` and :mod:`hmac` load OpenSSL's libcrypto (about 3.5 MB
resident), so neither is used for what CPython builds in: SHA-256, the
digest the integrity micro-protocols sign with, comes from the builtin
``_sha2`` (``_sha256`` before 3.12), and verification compares with
``_operator._compare_digest``, the function ``hmac.compare_digest`` is
without OpenSSL.  :mod:`hashlib` is imported only for another digest name.
"""

from __future__ import annotations

from _operator import _compare_digest

from repro.util.errors import ConfigurationError

_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


def _builtin_sha256():
    """CPython's own SHA-256 constructor, or None where it is not built."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            return None
    return sha256


class KeyedMac:
    """HMAC under one key and one named digest (SHA-256 by default).

    Implements RFC 2104 directly:
    ``H((K' ^ opad) || H((K' ^ ipad) || message))`` where ``K'`` is the key
    padded (or first hashed, if longer than the block size) to the digest's
    block length.
    """

    def __init__(self, key: bytes, hash_name: str = "sha256"):
        make_hash = _builtin_sha256() if hash_name == "sha256" else None
        if make_hash is None:
            import hashlib

            # Guaranteed by hashlib and of fixed length (SHAKE takes its length per call).
            if hash_name not in hashlib.algorithms_guaranteed or hash_name.startswith("shake_"):
                raise ConfigurationError(f"not a fixed-length hashlib digest: {hash_name!r}")
            make_hash = getattr(hashlib, hash_name)
        block_size = make_hash().block_size
        if len(key) > block_size:
            key = make_hash(key).digest()
        key = bytes(key).ljust(block_size, b"\x00")
        self._inner = make_hash(key.translate(_IPAD))
        self._outer = make_hash(key.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        """HMAC(key, message)."""
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Constant-time verification of a signature from :meth:`digest`;
        whatever is not bytes (a peer sent it) is not a signature."""
        return isinstance(signature, (bytes, bytearray)) and _compare_digest(
            self.digest(message), signature
        )
