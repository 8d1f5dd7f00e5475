"""Unit tests for the pure-Python DES implementation.

Known-answer vectors pin the algorithm to FIPS 46-3; mode/padding tests
cover the envelope around the block cipher; the fused-table block function
is held, block for block and message for message, to the table-per-step
implementation it replaced (``tests/oracles/des_reference.py``).
"""

import random
import sys

import pytest

from repro.crypto import des
from repro.crypto.des import DesCipher
from repro.util.errors import MarshalError
from tests.oracles.des_reference import ReferenceDes

# The classic worked example (used in innumerable DES expositions).
KAT_KEY = bytes.fromhex("133457799BBCDFF1")
KAT_PLAIN = bytes.fromhex("0123456789ABCDEF")
KAT_CIPHER = bytes.fromhex("85E813540F0AB405")


class TestKnownAnswers:
    def test_classic_vector_encrypt(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        assert cipher.encrypt_block(KAT_PLAIN) == KAT_CIPHER

    def test_classic_vector_decrypt(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        assert cipher.decrypt_block(KAT_CIPHER) == KAT_PLAIN

    def test_all_zero_key_and_block(self):
        # Published vector: DES(0^64) under key 0^64 = 8CA64DE9C1B123A7.
        cipher = DesCipher(bytes(8), mode="ECB")
        assert cipher.encrypt_block(bytes(8)) == bytes.fromhex("8CA64DE9C1B123A7")

    def test_all_ones_vector(self):
        # Published vector: key FF..FF, plaintext FF..FF -> 7359B2163E4EDC58.
        key = bytes.fromhex("FFFFFFFFFFFFFFFF")
        plain = bytes.fromhex("FFFFFFFFFFFFFFFF")
        cipher = DesCipher(key, mode="ECB")
        assert cipher.encrypt_block(plain) == bytes.fromhex("7359B2163E4EDC58")

    def test_complementation_property(self):
        # DES(~K, ~P) == ~DES(K, P) — a structural property of the cipher
        # that fails for almost any implementation bug.
        key = bytes.fromhex("0123456789ABCDEF")
        plain = bytes.fromhex("1122334455667788")
        ct = DesCipher(key, mode="ECB").encrypt_block(plain)
        comp_key = bytes(b ^ 0xFF for b in key)
        comp_plain = bytes(b ^ 0xFF for b in plain)
        comp_ct = DesCipher(comp_key, mode="ECB").encrypt_block(comp_plain)
        assert comp_ct == bytes(b ^ 0xFF for b in ct)


class TestModes:
    def test_ecb_roundtrip(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        for size in (0, 1, 7, 8, 9, 100):
            data = bytes(range(size % 256))[:size] or b""
            assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_cbc_roundtrip(self):
        cipher = DesCipher(KAT_KEY, mode="CBC")
        data = b"the quick brown fox jumps over the lazy dog"
        assert cipher.decrypt(cipher.encrypt(data)) == data

    def test_cbc_randomizes_iv(self):
        cipher = DesCipher(KAT_KEY, mode="CBC")
        assert cipher.encrypt(b"same input") != cipher.encrypt(b"same input")

    def test_cbc_explicit_iv_is_deterministic(self):
        cipher = DesCipher(KAT_KEY, mode="CBC")
        iv = bytes(range(8))
        assert cipher.encrypt(b"data", iv=iv) == cipher.encrypt(b"data", iv=iv)

    def test_ecb_identical_blocks_leak(self):
        # ECB's defining weakness, asserted as documented behaviour.
        cipher = DesCipher(KAT_KEY, mode="ECB")
        ct = cipher.encrypt(b"A" * 16)
        assert ct[:8] == ct[8:16]

    def test_cbc_identical_blocks_do_not_leak(self):
        cipher = DesCipher(KAT_KEY, mode="CBC")
        ct = cipher.encrypt(b"A" * 16, iv=bytes(8))
        assert ct[8:16] != ct[16:24]

    def test_modes_are_incompatible(self):
        ct = DesCipher(KAT_KEY, mode="ECB").encrypt(b"data")
        with pytest.raises(MarshalError):
            DesCipher(KAT_KEY, mode="CBC").decrypt(ct)


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(ValueError):
            DesCipher(b"short")

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            DesCipher(KAT_KEY, mode="CTR")

    def test_bad_block_length(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        with pytest.raises(ValueError):
            cipher.encrypt_block(b"123")

    def test_truncated_ciphertext(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        with pytest.raises(MarshalError):
            cipher.decrypt(b"\x00" * 7)

    def test_corrupted_padding_detected(self):
        cipher = DesCipher(KAT_KEY, mode="ECB")
        ct = bytearray(cipher.encrypt(b"hello"))
        ct[-1] ^= 0xFF
        with pytest.raises(MarshalError):
            cipher.decrypt(bytes(ct))

    def test_bad_iv_length(self):
        with pytest.raises(ValueError):
            DesCipher(KAT_KEY, mode="CBC").encrypt(b"x", iv=b"123")

    def test_empty_cbc_ciphertext(self):
        with pytest.raises(MarshalError):
            DesCipher(KAT_KEY, mode="CBC").decrypt(b"")


class TestAgainstTheReference:
    def test_seeded_blocks_both_directions(self):
        rng = random.Random(15)
        for _ in range(2000):
            key, block = rng.randbytes(8), rng.randbytes(8)
            cipher, reference = DesCipher(key, mode="ECB"), ReferenceDes(key, mode="ECB")
            assert cipher.encrypt_block(block) == reference.encrypt_block(block)
            assert cipher.decrypt_block(block) == reference.decrypt_block(block)

    @pytest.mark.parametrize(
        "key",
        ["0101010101010101", "FEFEFEFEFEFEFEFE", "E0E0E0E0F1F1F1F1", "1F1F1F1F0E0E0E0E"],
    )
    def test_weak_keys_self_invert(self, key):
        """All sixteen round keys of a weak key are equal, so encrypting
        twice is the identity -- whatever order the schedule is walked in."""
        cipher = DesCipher(bytes.fromhex(key), mode="ECB")
        rng = random.Random(key)
        for _ in range(50):
            block = rng.randbytes(8)
            assert cipher.encrypt_block(cipher.encrypt_block(block)) == block
            assert cipher.decrypt_block(block) == cipher.encrypt_block(block)

    @pytest.mark.parametrize("mode", ["CBC", "ECB"])
    def test_messages_of_every_length_byte_identical(self, mode):
        rng = random.Random(mode)
        key, iv = rng.randbytes(8), rng.randbytes(8)
        cipher, reference = DesCipher(key, mode=mode), ReferenceDes(key, mode=mode)
        for length in range(65):
            data = rng.randbytes(length)
            extra = {"iv": iv} if mode == "CBC" else {}
            encrypted = cipher.encrypt(data, **extra)
            assert encrypted == reference.encrypt(data, **extra)
            assert cipher.decrypt(encrypted) == reference.decrypt(encrypted) == data
            assert cipher.decrypt(bytearray(encrypted)) == data

    def test_corrupt_ciphertext_fails_alike(self):
        key = bytes.fromhex("133457799BBCDFF1")
        for mode in ("CBC", "ECB"):
            cipher, reference = DesCipher(key, mode=mode), ReferenceDes(key, mode=mode)
            for data in (b"", b"\x00" * 7, b"\x00" * 8, b"\x00" * 12, b"\x00" * 16, b"\x01" * 24):
                outcomes = []
                for subject in (cipher, reference):
                    try:
                        outcomes.append(subject.decrypt(data))
                    except MarshalError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (mode, data)

    def test_a_fresh_iv_for_every_cbc_encryption(self, monkeypatch):
        drawn = []

        def urandom(count):
            drawn.append(count)
            return bytes([len(drawn)]) * count

        monkeypatch.setattr(des.os, "urandom", urandom)
        cipher = DesCipher(KAT_KEY)
        first, second = cipher.encrypt(b"same"), cipher.encrypt(b"same")
        assert drawn == [8, 8]
        assert first[:8] == b"\x01" * 8 and second[:8] == b"\x02" * 8

    def test_one_block_function_and_small_tables(self):
        """What the round indexes stays small: four pair tables with 64 runs
        of 64 entries each, eight 256-entry tables for IP and for FP."""
        pair_tables = (des._SP13, des._SP57, des._SP24, des._SP68)
        assert all(len(table) == 0x3F40 for table in pair_tables)
        assert all(value < 2**32 for table in pair_tables for value in table)
        assert all(len(lut) == 256 for lut in (des._IP0, des._IP7, des._FP0, des._FP7))


def mode_calls(call, *args) -> dict:
    """Each call ``call`` makes: a builtin by qualified name, a Python
    function by name."""
    seen: dict = {}

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            name = arg.__qualname__ if event == "c_call" else frame.f_code.co_name
            seen[name] = seen.get(name, 0) + 1

    sys.setprofile(hook)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    del seen["setprofile"]
    return seen


class TestModeCalls:
    """A mode pads, unpacks, chains and packs a message with tables, one
    ``iter_unpack`` and C-level ``map``: its calls are a fixed few plus one
    ``_crypt_block`` per block, whatever the message's length."""

    @pytest.mark.parametrize("length", [0, 7, 8, 20, 64, 300])
    @pytest.mark.parametrize("mode", ["CBC", "ECB"])
    def test_calls_per_block_count(self, mode, length):
        cipher = DesCipher(KAT_KEY, mode=mode)
        data = (bytes(range(256)) * 2)[:length]
        blocks = length // 8 + 1
        fixed = {"Struct.iter_unpack": 1, "bytes.join": 1}
        drawn = {"urandom": 1} if mode == "CBC" else {}
        assert mode_calls(cipher.encrypt, data) == {
            "encrypt": 1, "len": 1, **drawn, **fixed, "_crypt_block": blocks
        }
        ciphertext = cipher.encrypt(data)
        assert mode_calls(cipher.decrypt, ciphertext) == {
            "decrypt": 1, **fixed, "_crypt_block": blocks
        }
        assert cipher.decrypt(ciphertext) == data
