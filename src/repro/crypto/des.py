"""Pure-Python DES (FIPS 46-3) with ECB/CBC modes and PKCS#5 padding.

The paper's ``DesPrivacy`` micro-protocol encrypts request parameters and
reply values with DES.  This is a from-scratch implementation of the exact
algorithm so the Table 2 "Privacy" rows exercise a genuinely CPU-bound
cipher, preserving the paper's cost shape (crypto dominates the response
time on both platforms).

The FIPS tables below are the source of truth; what the cipher indexes at
run time is derived from them once per process, when the first
:class:`DesCipher` is made (:func:`_derive_tables`), so a process that
configures no privacy never builds them (1.3 MB, most of it S-box tables):

- :func:`_crypt_block`, the only block function, makes no call.  It keeps
  both halves rotated left by one bit, so that the eight 6-bit chunks of the
  E expansion are the byte-aligned 6-bit fields of ``r`` (chunks 2, 4, 6, 8)
  and of ``r`` rotated right by four (chunks 1, 3, 5, 7): two masks, no table;
- a round key is two 32-bit words holding its odd and its even chunks at
  those positions (:func:`_key_schedule`, once per :class:`DesCipher`);
- S-box and P are fused, rotated like the halves and fused again in pairs
  of fields: four tables indexed through a ``0x3F3F`` mask make a round;
- two rounds per loop step, each half updated in place, so no swap;
- IP and FP are eight byte-indexed lookups each, rotation included;
- a mode pads, unpacks, chains and packs a message with table entries, one
  ``iter_unpack`` of a pre-built :class:`struct.Struct`, C-level ``map``
  and one ``join``: besides a ``_crypt_block`` per block, encrypting calls
  ``len``, ``os.urandom`` (CBC), ``iter_unpack`` and ``join``, decrypting
  ``iter_unpack`` and ``join``.

Published test vectors and the table-per-step implementation in
``tests/oracles/des_reference.py`` pin it (``tests/unit/test_des.py``).

DES is used here because the paper uses it; it is *not* a recommendation —
single DES has been breakable by exhaustive key search since the 1990s.
"""

from __future__ import annotations

import os
import struct
import threading
from itertools import chain, repeat
from operator import xor

from repro.util.errors import MarshalError

# --- Standard DES tables (FIPS 46-3), 1-based bit positions from the MSB ---

_IP = [
    58, 50, 42, 34, 26, 18, 10, 2,
    60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6,
    64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9, 1,
    59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5,
    63, 55, 47, 39, 31, 23, 15, 7,
]

_FP = [
    40, 8, 48, 16, 56, 24, 64, 32,
    39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30,
    37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28,
    35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26,
    33, 1, 41, 9, 49, 17, 57, 25,
]

_P = [
    16, 7, 20, 21,
    29, 12, 28, 17,
    1, 15, 23, 26,
    5, 18, 31, 10,
    2, 8, 24, 14,
    32, 27, 3, 9,
    19, 13, 30, 6,
    22, 11, 4, 25,
]

_PC1 = [
    57, 49, 41, 33, 25, 17, 9,
    1, 58, 50, 42, 34, 26, 18,
    10, 2, 59, 51, 43, 35, 27,
    19, 11, 3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,
    7, 62, 54, 46, 38, 30, 22,
    14, 6, 61, 53, 45, 37, 29,
    21, 13, 5, 28, 20, 12, 4,
]

_PC2 = [
    14, 17, 11, 24, 1, 5,
    3, 28, 15, 6, 21, 10,
    23, 19, 12, 4, 26, 8,
    16, 7, 27, 20, 13, 2,
    41, 52, 31, 37, 47, 55,
    30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53,
    46, 42, 50, 36, 29, 32,
]

_SHIFTS = [1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1]

_SBOXES = [
    [
        [14, 4, 13, 1, 2, 15, 11, 8, 3, 10, 6, 12, 5, 9, 0, 7],
        [0, 15, 7, 4, 14, 2, 13, 1, 10, 6, 12, 11, 9, 5, 3, 8],
        [4, 1, 14, 8, 13, 6, 2, 11, 15, 12, 9, 7, 3, 10, 5, 0],
        [15, 12, 8, 2, 4, 9, 1, 7, 5, 11, 3, 14, 10, 0, 6, 13],
    ],
    [
        [15, 1, 8, 14, 6, 11, 3, 4, 9, 7, 2, 13, 12, 0, 5, 10],
        [3, 13, 4, 7, 15, 2, 8, 14, 12, 0, 1, 10, 6, 9, 11, 5],
        [0, 14, 7, 11, 10, 4, 13, 1, 5, 8, 12, 6, 9, 3, 2, 15],
        [13, 8, 10, 1, 3, 15, 4, 2, 11, 6, 7, 12, 0, 5, 14, 9],
    ],
    [
        [10, 0, 9, 14, 6, 3, 15, 5, 1, 13, 12, 7, 11, 4, 2, 8],
        [13, 7, 0, 9, 3, 4, 6, 10, 2, 8, 5, 14, 12, 11, 15, 1],
        [13, 6, 4, 9, 8, 15, 3, 0, 11, 1, 2, 12, 5, 10, 14, 7],
        [1, 10, 13, 0, 6, 9, 8, 7, 4, 15, 14, 3, 11, 5, 2, 12],
    ],
    [
        [7, 13, 14, 3, 0, 6, 9, 10, 1, 2, 8, 5, 11, 12, 4, 15],
        [13, 8, 11, 5, 6, 15, 0, 3, 4, 7, 2, 12, 1, 10, 14, 9],
        [10, 6, 9, 0, 12, 11, 7, 13, 15, 1, 3, 14, 5, 2, 8, 4],
        [3, 15, 0, 6, 10, 1, 13, 8, 9, 4, 5, 11, 12, 7, 2, 14],
    ],
    [
        [2, 12, 4, 1, 7, 10, 11, 6, 8, 5, 3, 15, 13, 0, 14, 9],
        [14, 11, 2, 12, 4, 7, 13, 1, 5, 0, 15, 10, 3, 9, 8, 6],
        [4, 2, 1, 11, 10, 13, 7, 8, 15, 9, 12, 5, 6, 3, 0, 14],
        [11, 8, 12, 7, 1, 14, 2, 13, 6, 15, 0, 9, 10, 4, 5, 3],
    ],
    [
        [12, 1, 10, 15, 9, 2, 6, 8, 0, 13, 3, 4, 14, 7, 5, 11],
        [10, 15, 4, 2, 7, 12, 9, 5, 6, 1, 13, 14, 0, 11, 3, 8],
        [9, 14, 15, 5, 2, 8, 12, 3, 7, 0, 4, 10, 1, 13, 11, 6],
        [4, 3, 2, 12, 9, 5, 15, 10, 11, 14, 1, 7, 6, 0, 8, 13],
    ],
    [
        [4, 11, 2, 14, 15, 0, 8, 13, 3, 12, 9, 7, 5, 10, 6, 1],
        [13, 0, 11, 7, 4, 9, 1, 10, 14, 3, 5, 12, 2, 15, 8, 6],
        [1, 4, 11, 13, 12, 3, 7, 14, 10, 15, 6, 8, 0, 5, 9, 2],
        [6, 11, 13, 8, 1, 4, 10, 7, 9, 5, 0, 15, 14, 2, 3, 12],
    ],
    [
        [13, 2, 8, 4, 6, 15, 11, 1, 10, 9, 3, 14, 5, 0, 12, 7],
        [1, 15, 13, 8, 10, 3, 7, 4, 12, 5, 6, 11, 0, 14, 9, 2],
        [7, 11, 4, 1, 9, 12, 14, 2, 0, 6, 10, 13, 15, 3, 5, 8],
        [2, 1, 14, 7, 4, 10, 8, 13, 15, 12, 9, 0, 3, 5, 6, 11],
    ],
]


def _byte_luts(spec: list[int], in_width: int) -> list[list[int]]:
    """Per-input-byte lookup tables for a bit permutation: ``spec[i]`` is the
    1-based (from the MSB) input bit that becomes output bit ``i``, or 0 for
    an output bit that is always clear; table ``k`` maps the value of input
    byte ``k`` to its share of the output.  Built by doubling, bit by bit."""
    out_width = len(spec)
    masks = [0] * (in_width + 1)
    for out_pos, in_pos in enumerate(spec):
        masks[in_pos] |= 1 << (out_width - 1 - out_pos)
    luts = []
    for first in range(0, in_width, 8):
        lut = [0]
        for mask in masks[first + 8 : first : -1]:
            lut += [value | mask for value in lut]
        luts.append(lut)
    return luts


def _build_sp_tables() -> list[list[int]]:
    """Fuse S-boxes and P, two boxes to a table (1 and 3, 5 and 7, 2 and 4,
    6 and 8): index ``six_a << 8 | six_b``, value both boxes' output bits
    after P, rotated left by one like the halves they are XORed into."""
    p_luts = _byte_luts(_P[1:] + _P[:1], 32)
    singles = []
    for index, box in enumerate(_SBOXES):
        lut, shift = p_luts[index // 2], 4 * (1 - index % 2)  # two boxes' nibbles to a byte
        singles.append(
            [lut[box[(six & 0x20) >> 4 | (six & 1)][six >> 1 & 0x0F] << shift] for six in range(64)]
        )
    pairs = []
    for high, low in ((0, 2), (4, 6), (1, 3), (5, 7)):
        table = [0] * 0x3F40
        for six, high_bits in enumerate(singles[high]):
            table[six << 8 : (six << 8) + 64] = [high_bits | bits for bits in singles[low]]
        pairs.append(table)
    return pairs


_derived = False
_derive_lock = threading.Lock()


def _derive_tables() -> None:
    """Bind what the cipher indexes at run time, derived from the FIPS
    tables: once per process, by the first :class:`DesCipher` (or the first
    read of a derived name, see :func:`__getattr__`).  Threads may make the
    first cipher at once: the lock lets one derive, and the flag, set last,
    tells the rest that every table is bound."""
    global _IP0, _IP1, _IP2, _IP3, _IP4, _IP5, _IP6, _IP7
    global _FP0, _FP1, _FP2, _FP3, _FP4, _FP5, _FP6, _FP7
    global _PC1_LUTS, _PC2_LUTS, _SP13, _SP57, _SP24, _SP68, _derived
    with _derive_lock:
        if _derived:
            return
        # Both 32-bit halves of a block rotated left (right) by one bit, as specs.
        rotl1 = [*range(2, 33), 1, *range(34, 65), 33]
        rotr1 = [32, *range(1, 32), 64, *range(33, 64)]
        _IP0, _IP1, _IP2, _IP3, _IP4, _IP5, _IP6, _IP7 = _byte_luts(
            [_IP[pos - 1] for pos in rotl1], 64
        )
        _FP0, _FP1, _FP2, _FP3, _FP4, _FP5, _FP6, _FP7 = _byte_luts(
            [rotr1[pos - 1] for pos in _FP], 64
        )
        _PC1_LUTS = _byte_luts(_PC1, 64)
        # PC-2 straight into the two round-key words: the odd chunks, then the
        # even ones, each chunk in the low six bits of its own byte.
        _PC2_LUTS = _byte_luts(
            [pos for first in (0, 6) for at in range(first, 48, 12)
             for pos in (0, 0, *_PC2[at : at + 6])],
            56,
        )
        _SP13, _SP57, _SP24, _SP68 = _build_sp_tables()
        _derived = True


def __getattr__(name: str):
    """A derived table read before the first :class:`DesCipher` (``des._SP13``)
    derives them all; any other missing name is missing."""
    if not _derived and name.startswith("_") and not name.startswith("__"):
        _derive_tables()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


_BLOCK = 8


def _key_schedule(key: bytes) -> tuple:
    """Derive the round keys from an 8-byte key, as :func:`_crypt_block`
    walks them: eight steps of two rounds, two 32-bit words a round."""
    key_int = int.from_bytes(key, "big")
    cd = 0
    for shift, lut in zip(range(56, -8, -8), _PC1_LUTS):
        cd |= lut[(key_int >> shift) & 0xFF]
    c, d = cd >> 28, cd & 0x0FFFFFFF
    words = []
    for shift in _SHIFTS:
        c = ((c << shift) | (c >> (28 - shift))) & 0x0FFFFFFF
        d = ((d << shift) | (d >> (28 - shift))) & 0x0FFFFFFF
        cd = (c << 28) | d
        subkey = 0
        for byte_shift, lut in zip(range(48, -8, -8), _PC2_LUTS):
            subkey |= lut[(cd >> byte_shift) & 0xFF]
        words += (subkey >> 32, subkey & 0xFFFFFFFF)
    return tuple(zip(words[0::4], words[1::4], words[2::4], words[3::4]))


def _crypt_block(block: int, round_keys: tuple) -> int:
    """One 64-bit block through IP, sixteen rounds and FP."""
    x = (
        _IP0[block >> 56] | _IP1[block >> 48 & 0xFF] | _IP2[block >> 40 & 0xFF]
        | _IP3[block >> 32 & 0xFF] | _IP4[block >> 24 & 0xFF] | _IP5[block >> 16 & 0xFF]
        | _IP6[block >> 8 & 0xFF] | _IP7[block & 0xFF]
    )
    left, right = x >> 32, x & 0xFFFFFFFF
    sp13, sp57, sp24, sp68 = _SP13, _SP57, _SP24, _SP68
    for k0, k1, k2, k3 in round_keys:
        # Bits above 32 of the rotation are never looked at.
        odd = (right << 28 | right >> 4) ^ k0
        even = right ^ k1
        left ^= (
            sp13[odd >> 16 & 0x3F3F] | sp57[odd & 0x3F3F]
            | sp24[even >> 16 & 0x3F3F] | sp68[even & 0x3F3F]
        )
        odd = (left << 28 | left >> 4) ^ k2
        even = left ^ k3
        right ^= (
            sp13[odd >> 16 & 0x3F3F] | sp57[odd & 0x3F3F]
            | sp24[even >> 16 & 0x3F3F] | sp68[even & 0x3F3F]
        )
    # R16 || L16 into the inverse permutation.
    return (
        _FP0[right >> 24] | _FP1[right >> 16 & 0xFF] | _FP2[right >> 8 & 0xFF] | _FP3[right & 0xFF]
        | _FP4[left >> 24] | _FP5[left >> 16 & 0xFF] | _FP6[left >> 8 & 0xFF] | _FP7[left & 0xFF]
    )


def _pkcs5_pad(data: bytes) -> bytes:
    pad = _BLOCK - (len(data) % _BLOCK)
    return data + bytes([pad]) * pad


def _pkcs5_unpad(data: bytes) -> bytes:
    if not data or len(data) % _BLOCK:
        raise MarshalError("invalid DES ciphertext length")
    pad = data[-1]
    if not 1 <= pad <= _BLOCK or data[-pad:] != bytes([pad]) * pad:
        raise MarshalError("invalid PKCS#5 padding")
    return data[:-pad]


# What the modes use in place of a call per message.  ``_PADDING[n & 7]`` is
# the PKCS#5 padding of an ``n``-octet message; ``_TAILS[octet]`` is the one
# valid padding that ends in ``octet`` (1 to 8), or None.
_PADDING = tuple(_pkcs5_pad(bytes(size))[size:] for size in range(_BLOCK))
_TAILS = (None, *reversed(_PADDING), *(None,) * (255 - _BLOCK))

_WORD = struct.Struct(">Q")
_WORDS = _WORD.iter_unpack  # a message's 64-bit blocks, each as a 1-tuple
_PACK_WORD = _WORD.pack


class DesCipher:
    """A DES cipher bound to one key, supporting ECB and CBC modes.

    >>> cipher = DesCipher(bytes.fromhex("133457799BBCDFF1"))
    >>> cipher.decrypt(cipher.encrypt(b"attack at dawn"))
    b'attack at dawn'
    """

    def __init__(self, key: bytes, mode: str = "CBC"):
        if len(key) != _BLOCK:
            raise ValueError("DES key must be exactly 8 bytes")
        if mode not in ("ECB", "CBC"):
            raise ValueError(f"unsupported mode: {mode}")
        self.mode = mode
        if not _derived:
            _derive_tables()
        self._enc_keys = _key_schedule(key)
        # The same rounds, last first.
        self._dec_keys = tuple((k2, k3, k0, k1) for k0, k1, k2, k3 in reversed(self._enc_keys))

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt exactly one 8-byte block (no padding, no chaining)."""
        if len(block) != _BLOCK:
            raise ValueError("block must be 8 bytes")
        value = int.from_bytes(block, "big")
        return _crypt_block(value, self._enc_keys).to_bytes(_BLOCK, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt exactly one 8-byte block (no padding, no chaining)."""
        if len(block) != _BLOCK:
            raise ValueError("block must be 8 bytes")
        value = int.from_bytes(block, "big")
        return _crypt_block(value, self._dec_keys).to_bytes(_BLOCK, "big")

    def encrypt(self, data: bytes, iv: bytes | None = None) -> bytes:
        """Encrypt ``data`` with PKCS#5 padding.

        In CBC mode a random IV is generated when not supplied and prepended
        to the ciphertext, so :meth:`decrypt` needs no extra state.
        """
        padded = data + _PADDING[len(data) & 7]
        keys = repeat(self._enc_keys)
        if self.mode == "ECB":
            return b"".join(map(_PACK_WORD, map(_crypt_block, chain(*_WORDS(padded)), keys)))
        if iv is None:
            iv = os.urandom(_BLOCK)
        elif len(iv) != _BLOCK:
            raise ValueError("IV must be 8 bytes")
        prev, *blocks = chain(*_WORDS(iv + padded))
        # Each block is XORed with the ciphertext block before it: ``out``
        # feeds the map that extends it, and a list iterator sees every
        # item appended behind it, so the chain needs no Python loop.
        out = [prev]
        out += map(_crypt_block, map(xor, blocks, out), keys)
        return b"".join(map(_PACK_WORD, out))

    def decrypt(self, data: bytes) -> bytes:
        """Invert :meth:`encrypt`, validating and stripping the padding."""
        try:
            words = [*chain(*_WORDS(data))]
        except struct.error:  # not a whole number of blocks
            words = []
        blocks = words[1:] if self.mode == "CBC" else words
        if not blocks:
            raise MarshalError("invalid DES ciphertext length")
        plain = map(_crypt_block, blocks, repeat(self._dec_keys))
        if blocks is not words:  # CBC: XORed with the block before, the IV first
            plain = map(xor, plain, words)
        plain = b"".join(map(_PACK_WORD, plain))
        pad = plain[-1]
        if plain[-pad:] != _TAILS[pad]:
            return _pkcs5_unpad(plain)  # not PKCS#5: it raises, with its own text
        return plain[:-pad]
