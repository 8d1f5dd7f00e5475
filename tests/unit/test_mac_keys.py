"""Unit tests for the HMAC construction and the key store."""

import hashlib
import hmac as stdlib_hmac

import pytest

from repro.crypto.keys import KeyStore, resolve_key
from repro.crypto.mac import KeyedMac, hmac_digest, hmac_verify
from repro.util.errors import ConfigurationError


class TestHmac:
    def test_matches_stdlib_short_key(self):
        for message in (b"", b"msg", b"x" * 1000):
            assert hmac_digest(b"key", message) == stdlib_hmac.new(
                b"key", message, hashlib.sha256
            ).digest()

    def test_matches_stdlib_long_key(self):
        # Keys longer than the block size are hashed first (RFC 2104).
        key = b"k" * 200
        assert hmac_digest(key, b"m") == stdlib_hmac.new(key, b"m", hashlib.sha256).digest()

    def test_matches_stdlib_sha1(self):
        assert hmac_digest(b"key", b"msg", "sha1") == stdlib_hmac.new(
            b"key", b"msg", hashlib.sha1
        ).digest()

    def test_rfc2104_test_vector(self):
        # RFC 4231 test case 2 for HMAC-SHA-256.
        key = b"Jefe"
        message = b"what do ya want for nothing?"
        expected = bytes.fromhex(
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )
        assert hmac_digest(key, message) == expected

    def test_verify_accepts_and_rejects(self):
        signature = hmac_digest(b"key", b"msg")
        assert hmac_verify(b"key", b"msg", signature)
        assert not hmac_verify(b"key", b"tampered", signature)
        assert not hmac_verify(b"other-key", b"msg", signature)
        assert not hmac_verify(b"key", b"msg", b"garbage")


class TestKeyedMac:
    @pytest.mark.parametrize("hash_name", ["sha1", "sha256", "sha512"])
    def test_matches_stdlib_for_every_key_length(self, hash_name):
        for length in range(201):
            key = bytes((length + i) % 256 for i in range(length))
            mac = KeyedMac(key, hash_name)
            for message in (b"", b"m" * 150):
                expected = stdlib_hmac.new(key, message, hash_name).digest()
                assert mac.digest(message) == expected
                assert hmac_digest(key, message, hash_name) == expected

    def test_one_object_signs_many_messages(self):
        mac = KeyedMac(b"key")
        first = mac.digest(b"one")
        assert mac.digest(b"two") != first
        assert mac.digest(b"one") == first  # the keyed states are copied, not consumed
        assert mac.verify(b"one", first) and mac.verify(b"one", bytearray(first))
        assert not mac.verify(b"two", first)
        assert not mac.verify(b"one", first[:-1])

    def test_bytearray_key(self):
        assert KeyedMac(bytearray(b"key")).digest(b"m") == hmac_digest(b"key", b"m")

    @pytest.mark.parametrize("hash_name", ["shake_128", "shake_256", "new", "sha257", "md5 "])
    def test_rejects_what_is_not_a_fixed_length_digest(self, hash_name):
        with pytest.raises(ConfigurationError, match="digest"):
            KeyedMac(b"key", hash_name)
        with pytest.raises(ConfigurationError):
            hmac_digest(b"key", b"m", hash_name)
        with pytest.raises(ConfigurationError):
            hmac_verify(b"key", b"m", b"sig", hash_name)


class TestResolveKey:
    def test_raw_or_hex(self):
        assert resolve_key(b"\x01\x02", None, "X") == b"\x01\x02"
        assert resolve_key(None, "0102", "X") == b"\x01\x02"

    def test_both_or_neither(self):
        with pytest.raises(ConfigurationError, match="not both"):
            resolve_key(b"k", "6b", "X")
        with pytest.raises(ConfigurationError, match="DesPrivacyServer requires a key"):
            resolve_key(None, None, "DesPrivacyServer")


class TestKeyStore:
    def test_add_and_get(self):
        store = KeyStore()
        store.add("k1", b"\x01" * 8)
        assert store.get("k1") == b"\x01" * 8

    def test_generate(self):
        store = KeyStore()
        key = store.generate("des", length=8)
        assert len(key) == 8
        assert store.get("des") == key

    def test_missing_key_raises(self):
        with pytest.raises(ConfigurationError):
            KeyStore().get("nope")

    def test_initial_keys_and_names(self):
        store = KeyStore({"a": b"1", "b": b"2"})
        assert store.has("a")
        assert store.names() == ["a", "b"]
