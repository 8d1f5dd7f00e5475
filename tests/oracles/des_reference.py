"""DES one table per step: byte-LUT permutations (``_BytewisePermutation``),
an E expansion, eight S∘P lookups in ``_feistel`` and a swap per round in
``_crypt_block`` -- the block function ``repro.crypto.des`` had before the
fused-table one replaced it, kept as the differential oracle.  The FIPS
tables are read from the module under test (they are its source of truth
too, and the published vectors in ``tests/unit/test_des.py`` pin them); the
mode loops are the parent's, block by block."""

from __future__ import annotations

from repro.crypto.des import (
    _BLOCK,
    _FP,
    _IP,
    _P,
    _PC1,
    _PC2,
    _SBOXES,
    _SHIFTS,
    _pkcs5_pad,
    _pkcs5_unpad,
)
from repro.util.errors import MarshalError

# The E expansion (FIPS 46-3).  The module under test has no such table: with
# its halves rotated by one bit, E is two masks.
_E = [
    32, 1, 2, 3, 4, 5,
    4, 5, 6, 7, 8, 9,
    8, 9, 10, 11, 12, 13,
    12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21,
    20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29,
    28, 29, 30, 31, 32, 1,
]


class _BytewisePermutation:
    """A bit permutation applied via per-input-byte lookup tables.

    ``spec[i]`` is the 1-based (from the MSB) input bit that becomes output
    bit ``i``.  ``in_width`` must be a multiple of 8.
    """

    def __init__(self, spec: list[int], in_width: int):
        if in_width % 8:
            raise ValueError("in_width must be a multiple of 8")
        self._n_bytes = in_width // 8
        out_width = len(spec)
        luts = [[0] * 256 for _ in range(self._n_bytes)]
        for out_pos, in_pos in enumerate(spec):
            in_idx = in_pos - 1
            byte_idx, bit_idx = divmod(in_idx, 8)
            bit_in_byte = 7 - bit_idx
            out_shift = out_width - 1 - out_pos
            lut = luts[byte_idx]
            for byte_val in range(256):
                if (byte_val >> bit_in_byte) & 1:
                    lut[byte_val] |= 1 << out_shift
        self._luts = luts

    def apply(self, value: int) -> int:
        result = 0
        n = self._n_bytes
        for i, lut in enumerate(self._luts):
            result |= lut[(value >> ((n - 1 - i) * 8)) & 0xFF]
        return result


_IP_PERM = _BytewisePermutation(_IP, 64)
_FP_PERM = _BytewisePermutation(_FP, 64)
_E_PERM = _BytewisePermutation(_E, 32)
_PC1_PERM = _BytewisePermutation(_PC1, 64)
_PC2_PERM = _BytewisePermutation(_PC2, 56)


def _build_sp_tables() -> list[list[int]]:
    """Fuse each S-box with the P permutation: SP[i][six_bits] -> 32 bits."""
    p_perm = _BytewisePermutation(_P, 32)
    tables = []
    for box_index, box in enumerate(_SBOXES):
        shift = 28 - 4 * box_index
        table = []
        for six in range(64):
            row = ((six & 0x20) >> 4) | (six & 0x01)
            col = (six >> 1) & 0x0F
            table.append(p_perm.apply(box[row][col] << shift))
        tables.append(table)
    return tables


_SP = _build_sp_tables()


def _rotl28(value: int, n: int) -> int:
    return ((value << n) | (value >> (28 - n))) & 0x0FFFFFFF


def _key_schedule(key: bytes) -> list[int]:
    """Derive the 16 48-bit round subkeys from an 8-byte key."""
    key_int = int.from_bytes(key, "big")
    cd = _PC1_PERM.apply(key_int)
    c = (cd >> 28) & 0x0FFFFFFF
    d = cd & 0x0FFFFFFF
    subkeys = []
    for shift in _SHIFTS:
        c = _rotl28(c, shift)
        d = _rotl28(d, shift)
        subkeys.append(_PC2_PERM.apply((c << 28) | d))
    return subkeys


def _feistel(right: int, subkey: int) -> int:
    x = _E_PERM.apply(right) ^ subkey
    sp = _SP
    return (
        sp[0][(x >> 42) & 0x3F]
        | sp[1][(x >> 36) & 0x3F]
        | sp[2][(x >> 30) & 0x3F]
        | sp[3][(x >> 24) & 0x3F]
        | sp[4][(x >> 18) & 0x3F]
        | sp[5][(x >> 12) & 0x3F]
        | sp[6][(x >> 6) & 0x3F]
        | sp[7][x & 0x3F]
    )


def _crypt_block(block: int, subkeys: list[int]) -> int:
    x = _IP_PERM.apply(block)
    left = (x >> 32) & 0xFFFFFFFF
    right = x & 0xFFFFFFFF
    for subkey in subkeys:
        left, right = right, left ^ _feistel(right, subkey)
    # Final swap (R16 || L16) then the inverse permutation.
    return _FP_PERM.apply((right << 32) | left)


class ReferenceDes:
    """The parent's ``DesCipher``; CBC encryption needs its IV passed in."""

    def __init__(self, key: bytes, mode: str = "CBC"):
        if len(key) != _BLOCK:
            raise ValueError("DES key must be exactly 8 bytes")
        if mode not in ("ECB", "CBC"):
            raise ValueError(f"unsupported mode: {mode}")
        self.mode = mode
        self._enc_keys = _key_schedule(key)
        self._dec_keys = list(reversed(self._enc_keys))

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
        """Encrypt ``data`` with PKCS#5 padding; CBC prepends the IV given."""
        padded = _pkcs5_pad(data)
        out = bytearray()
        if self.mode == "ECB":
            for i in range(0, len(padded), _BLOCK):
                out += self.encrypt_block(padded[i : i + _BLOCK])
            return bytes(out)
        if iv is None or len(iv) != _BLOCK:
            raise ValueError("IV must be 8 bytes")
        out += iv
        prev = int.from_bytes(iv, "big")
        for i in range(0, len(padded), _BLOCK):
            block = int.from_bytes(padded[i : i + _BLOCK], "big") ^ prev
            prev = _crypt_block(block, self._enc_keys)
            out += prev.to_bytes(_BLOCK, "big")
        return bytes(out)

    def decrypt(self, data: bytes) -> bytes:
        """Invert :meth:`encrypt`, validating and stripping the padding."""
        if self.mode == "ECB":
            if not data or len(data) % _BLOCK:
                raise MarshalError("invalid DES ciphertext length")
            out = bytearray()
            for i in range(0, len(data), _BLOCK):
                out += self.decrypt_block(data[i : i + _BLOCK])
            return _pkcs5_unpad(bytes(out))
        if len(data) < 2 * _BLOCK or len(data) % _BLOCK:
            raise MarshalError("invalid DES ciphertext length")
        prev = int.from_bytes(data[:_BLOCK], "big")
        out = bytearray()
        for i in range(_BLOCK, len(data), _BLOCK):
            block = int.from_bytes(data[i : i + _BLOCK], "big")
            out += (_crypt_block(block, self._dec_keys) ^ prev).to_bytes(_BLOCK, "big")
            prev = block
        return _pkcs5_unpad(bytes(out))
