"""The HTTP wire codec against literal frames.

Golden bytes first (``tests/oracles/http_golden.py``, written by the
header-dict formatter this codec replaced): the formatter must produce them
and the parser must read them back.  Then the frames no formatter writes:
every wrong byte is a :class:`MarshalError`, and the two memo tables stay
bounded and hold names only.
"""

from __future__ import annotations

import pytest

from repro.apps.bank import bank_compiled
from repro.core.request import PB_CLIENT_ID, PB_PRIORITY, PB_REQUEST_ID, PB_VIEW_VERSION
from repro.http import message
from repro.http.client import HttpClient
from repro.http.message import format_request, format_response, parse_request, parse_response
from repro.http.server import HttpObjectServer
from repro.net.memory import InMemoryNetwork
from repro.serialization.jser import jser_dumps, jser_loads
from repro.util.errors import MarshalError
from tests.oracles import http_reference as reference
from tests.oracles.http_golden import FRAMES

WELLKNOWN = {PB_CLIENT_ID: "client-1", PB_REQUEST_ID: "req:7", PB_PRIORITY: 8, PB_VIEW_VERSION: 3}
ESCAPED = {
    "Mixed-Case": "kept",
    "clé-中": None,
    7: [1, 2],
    "cqos_signature": b"\x00\xff\x10binary",
    "nested": {"a": [1, {"b": b"\x01"}], "c": 2.5},
}
KIND = {"x-cqos-kind": "application-exception"}


def insufficient_funds():
    return bank_compiled().exceptions["bank::InsufficientFunds"](
        reason="insufficient funds", requested=5.0, available=1.0
    )


def requests():
    """name -> (path, piggyback, body) of every golden request."""
    return {
        "request_wellknown_keys": (
            "/objects/acct_CQoS_Skeleton_2/deposit", WELLKNOWN, jser_dumps([12.5])
        ),
        "request_escaped_keys": ("/objects/acct/op", ESCAPED, jser_dumps(["héllo", -7])),
        "request_no_piggyback_no_body": ("/objects/registry/list", {}, b""),
    }


def responses():
    """name -> (status, body, headers) of every golden response."""
    return {
        "response_bare_200": (200, jser_dumps(101.25), {}),
        "response_empty_200": (200, b"", {}),
        "response_400_application_exception": (400, jser_dumps(insufficient_funds()), KIND),
        "response_404": (404, jser_dumps({"type": "NotFound", "message": "ghost"}), {}),
        "response_500": (
            500,
            jser_dumps({"type": "BindError", "message": "http registry has no operation 'x'"}),
            {},
        ),
        "response_unknown_status": (418, b"", {}),
    }


def test_every_golden_frame_is_rebuilt_here():
    assert set(FRAMES) == set(requests()) | set(responses())


class TestGoldenFrames:
    @pytest.mark.parametrize("name", sorted(requests()))
    def test_request_bytes(self, name):
        path, piggyback, body = requests()[name]
        assert format_request(path, piggyback, body) == FRAMES[name]
        # The same frame with the table of line heads warm.
        assert format_request(path, piggyback, body) == FRAMES[name]

    @pytest.mark.parametrize("name", sorted(responses()))
    def test_response_bytes(self, name):
        status, body, headers = responses()[name]
        assert format_response(status, body, headers) == FRAMES[name]

    @pytest.mark.parametrize("name", sorted(requests()))
    def test_request_reads_back(self, name):
        path, piggyback, body = requests()[name]
        for _ in range(2):  # second time through the table of names
            assert parse_request(FRAMES[name]) == ("POST", path, {}, piggyback, body)

    @pytest.mark.parametrize("name", sorted(responses()))
    def test_response_reads_back(self, name):
        status, body, headers = responses()[name]
        assert parse_response(FRAMES[name]) == (status, headers, body)

    def test_piggyback_keeps_key_types_and_order(self):
        *_, piggyback, _ = parse_request(FRAMES["request_escaped_keys"])
        assert list(piggyback) == list(ESCAPED)
        assert [type(key) for key in piggyback] == [str, str, int, str, str]

    @pytest.mark.parametrize("name", sorted(requests()))
    def test_reference_wrote_the_request(self, name):
        """The golden bytes are the replaced formatter's: it still says so."""
        path, piggyback, body = requests()[name]
        request = reference.HttpRequest(
            "POST", path, reference.piggyback_headers(piggyback), body
        )
        assert reference.format_request(request) == FRAMES[name]
        assert reference.parse_request(FRAMES[name]).piggyback() == piggyback

    @pytest.mark.parametrize("name", sorted(responses()))
    def test_reference_wrote_the_response(self, name):
        status, body, headers = responses()[name]
        response = reference.HttpResponse(status, dict(headers), body)
        assert reference.format_response(response) == FRAMES[name]

    def test_application_exception_survives_the_reply(self):
        _, _, body = parse_response(FRAMES["response_400_application_exception"])
        raised = jser_loads(body)
        assert type(raised) is type(insufficient_funds())
        assert (raised.reason, raised.requested, raised.available) == (
            "insufficient funds", 5.0, 1.0,
        )


class TestMalformedFrames:
    """Whatever is wrong with the bytes, the error is a MarshalError naming
    it — never the bare ValueError of ``int()`` or ``bytes.fromhex``."""

    @pytest.mark.parametrize(
        "frame, complaint",
        [
            (b"HTTP/1.0 abc OK\r\ncontent-length: 0\r\n\r\n", "status line"),
            (b"HTTP/1.0  OK\r\ncontent-length: 0\r\n\r\n", "status line"),
            (b"HTTP/1.0\r\ncontent-length: 0\r\n\r\n", "status line"),
            (b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n", "status line"),
            (b"HTTP/1.0 200 OK\r\ncontent-length: x\r\n\r\n", "content-length"),
            (b"HTTP/1.0 200 OK\r\ncontent-length:\r\n\r\n", "content-length"),
            (b"HTTP/1.0 200 OK\r\ncontent-length: 3\r\n\r\nab", "content-length mismatch"),
        ],
    )
    def test_response(self, frame, complaint):
        with pytest.raises(MarshalError, match=complaint):
            parse_response(frame)

    @pytest.mark.parametrize(
        "frame, complaint",
        [
            (b"POST /x HTTP/1.0\r\ncontent-length: 1e\r\n\r\n", "content-length"),
            (b"POST /x HTTP/1.0\r\nx-cqos-a: zz\r\n\r\n", "x-cqos-a.*not hex"),
            (b"POST /x HTTP/1.0\r\nx-cqos-a: 0\r\n\r\n", "x-cqos-a.*not hex"),
            (b"POST /x HTTP/1.0\r\nx-cqos-!zz: 00\r\n\r\n", "x-cqos-!zz.*not hex"),
            (b"POST /x HTTP/1.0\r\nx-cqos-a: 03\r\n\r\n", None),  # truncated jser value
            (b"POST /x HTTP/1.0\r\nx-cqos-!06: 00\r\n\r\n", None),  # truncated jser key
            (b"POST /x HTTP/1.0\r\nX-CQoS-A : 0302\r\nx-cqos-a: 0 3 z\r\n\r\n", "not hex"),
            (b"POST  /x HTTP/1.0\r\n\r\n", "request line"),
            (b"POST /x HTTP/1.0", "terminator"),
        ],
    )
    def test_request(self, frame, complaint):
        with pytest.raises(MarshalError, match=complaint):
            parse_request(frame)

    def test_a_remembered_name_fails_like_a_new_one(self):
        """The same wrong value through the table's hit branch."""
        assert parse_request(b"POST /x HTTP/1.0\r\nx-cqos-seen: 0302\r\n\r\n")[3] == {"seen": 1}
        assert "x-cqos-seen" in message._HEADER_KEYS
        with pytest.raises(MarshalError, match="x-cqos-seen.*not hex"):
            parse_request(b"POST /x HTTP/1.0\r\nx-cqos-seen: 03zz\r\n\r\n")
        with pytest.raises(MarshalError):
            parse_request(b"POST /x HTTP/1.0\r\nx-cqos-seen\r\n\r\n")

    def test_server_answers_a_malformed_frame_inside_the_taxonomy(self):
        """What the client sees of a corrupted request is a MarshalError by
        name, not a 500 saying ``ValueError``."""
        net = InMemoryNetwork()
        server = HttpObjectServer(net, "srv", bank_compiled()).start()
        try:
            status, _, body = parse_response(
                server._handle_frame(b"POST /objects/a/b HTTP/1.0\r\nx-cqos-a: zz\r\n\r\n")
            )
            assert status == 500 and jser_loads(body)["type"] == "MarshalError"
        finally:
            server.shutdown()
            net.close()

    def test_client_maps_a_corrupted_reply_into_the_taxonomy(self):
        net = InMemoryNetwork()
        client = HttpClient(net, "cli")
        try:
            with pytest.raises(MarshalError):
                client._decode_response(b"HTTP/1.0 2\xff0 OK\r\ncontent-length: 0\r\n\r\n")
        finally:
            client.close()
            net.close()


class TestLenientSpellings:
    """Frames the formatter never writes and the parser has always read."""

    def test_names_fold_values_strip_and_later_duplicates_win(self):
        frame = (
            b"POST /x HTTP/1.0\r\n"
            b" X-CQoS-Cqos_Client :\t0608636c69656e742d31 \xa0\r\n"
            b"x-cqos-n: 03 02\r\n"
            b"X-CQOS-N:\x850304\x1f\r\n"
            b"Content-Length : 2 \r\n"
            b"x-other: a:b\r\n"
            b"\r\nhi"
        )
        assert parse_request(frame) == (
            "POST", "/x", {"x-other": "a:b"}, {"cqos_client": "client-1", "n": 2}, b"hi",
        )

    def test_a_response_keeps_cqos_headers_as_headers(self):
        frame = b"HTTP/1.0 200 OK\r\nX-CQoS-Kind: whatever\r\n\r\n"
        assert parse_response(frame) == (200, {"x-cqos-kind": "whatever"}, b"")

    def test_content_length_is_optional(self):
        assert parse_request(b"POST /x HTTP/1.0\r\n\r\nbody")[4] == b"body"


class TestMemoTables:
    def test_only_safe_string_keys_are_remembered(self):
        format_request("/x", {"safe.key-1": 1, "Unsafe": 2, 11: 3, True: 4, "": 5})
        assert message._LINE_HEADS["safe.key-1"] == "x-cqos-safe.key-1: "
        assert all(type(key) is str for key in message._LINE_HEADS)
        assert not {"Unsafe", 11, True, ""} & set(message._LINE_HEADS)

    def test_only_plain_names_are_remembered(self):
        parse_request(
            b"POST /x HTTP/1.0\r\nx-cqos-plain_1: 00\r\nX-CQoS-Folded: 00\r\n"
            b"x-cqos-!0603616263: 00\r\nx-cqos-sp ace: 00\r\nx-plain: 1\r\n\r\n"
        )
        assert message._HEADER_KEYS["x-cqos-plain_1"] == "plain_1"
        assert message._HEADER_KEYS["x-cqos-folded"] == "folded"
        for name, key in message._HEADER_KEYS.items():
            assert name == f"x-cqos-{key}" and message._SAFE_KEY.match(key)

    def test_tables_are_bounded_and_a_full_table_still_answers(self, monkeypatch):
        monkeypatch.setattr(message, "_LINE_HEADS", {})
        monkeypatch.setattr(message, "_HEADER_KEYS", {})
        piggyback = {f"k{i}": i for i in range(message._MEMO_LIMIT + 40)}
        frame = format_request("/x", piggyback)
        assert parse_request(frame)[3] == piggyback
        assert len(message._LINE_HEADS) == len(message._HEADER_KEYS) == message._MEMO_LIMIT
        # Past the bound nothing is added and nothing read differently.
        assert format_request("/x", piggyback) == frame
        assert parse_request(frame)[3] == piggyback
        assert len(message._LINE_HEADS) == len(message._HEADER_KEYS) == message._MEMO_LIMIT
