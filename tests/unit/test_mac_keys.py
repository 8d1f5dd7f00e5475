"""Unit tests for the HMAC construction and key resolution."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.keys import resolve_key
from repro.crypto.mac import KeyedMac
from repro.util.errors import ConfigurationError


class TestHmac:
    def test_matches_stdlib_short_key(self):
        for message in (b"", b"msg", b"x" * 1000):
            assert KeyedMac(b"key").digest(message) == stdlib_hmac.new(
                b"key", message, hashlib.sha256
            ).digest()

    def test_matches_stdlib_long_key(self):
        # Keys longer than the block size are hashed first (RFC 2104).
        key = b"k" * 200
        assert KeyedMac(key).digest(b"m") == stdlib_hmac.new(key, b"m", hashlib.sha256).digest()

    def test_matches_stdlib_sha1(self):
        assert KeyedMac(b"key", "sha1").digest(b"msg") == stdlib_hmac.new(
            b"key", b"msg", hashlib.sha1
        ).digest()

    def test_rfc2104_test_vector(self):
        # RFC 4231 test case 2 for HMAC-SHA-256.
        key = b"Jefe"
        message = b"what do ya want for nothing?"
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
        assert KeyedMac(key).digest(message) == expected

    def test_verify_accepts_and_rejects(self):
        signature = KeyedMac(b"key").digest(b"msg")
        assert KeyedMac(b"key").verify(b"msg", signature)
        assert not KeyedMac(b"key").verify(b"tampered", signature)
        assert not KeyedMac(b"other-key").verify(b"msg", signature)
        assert not KeyedMac(b"key").verify(b"msg", b"garbage")


class TestKeyedMac:
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha512"])
    def test_matches_stdlib_for_every_key_length(self, hash_name):
        for length in range(201):
            key = bytes((length + i) % 256 for i in range(length))
            mac = KeyedMac(key, hash_name)
            for message in (b"", b"m" * 150):
                expected = stdlib_hmac.new(key, message, hash_name).digest()
                assert mac.digest(message) == expected

    def test_one_object_signs_many_messages(self):
        mac = KeyedMac(b"key")
        first = mac.digest(b"one")
        assert mac.digest(b"two") != first
        assert mac.digest(b"one") == first  # the keyed states are copied, not consumed
        assert mac.verify(b"one", first) and mac.verify(b"one", bytearray(first))
        assert not mac.verify(b"two", first)
        assert not mac.verify(b"one", first[:-1])

    def test_bytearray_key(self):
        assert KeyedMac(bytearray(b"key")).digest(b"m") == KeyedMac(b"key").digest(b"m")

    @pytest.mark.parametrize("hash_name", ["shake_128", "shake_256", "new", "sha257", "md5 "])
    def test_rejects_what_is_not_a_fixed_length_digest(self, hash_name):
        with pytest.raises(ConfigurationError, match="digest"):
            KeyedMac(b"key", hash_name)


class TestResolveKey:
    def test_raw_or_hex(self):
        assert resolve_key(b"\x01\x02", None, "X") == b"\x01\x02"
        assert resolve_key(None, "0102", "X") == b"\x01\x02"

    def test_both_or_neither(self):
        with pytest.raises(ConfigurationError, match="not both"):
            resolve_key(b"k", "6b", "X")
        with pytest.raises(ConfigurationError, match="DesPrivacyServer requires a key"):
            resolve_key(None, None, "DesPrivacyServer")
