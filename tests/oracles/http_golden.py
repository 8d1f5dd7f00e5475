"""Golden HTTP frames, captured from the header-dict formatter.

Written by the parent of the commit that made ``repro.http.message`` write
a frame by appending to one value (commit 61dd0dc), with that
commit's ``format_request`` / ``format_response`` over ``HttpRequest`` /
``HttpResponse`` and ``piggyback_headers``; the messages they encode are
rebuilt in ``tests/unit/test_http_message.py``.  Never regenerate these from
the code under test.
"""

#: message name -> its frame, one header line per literal.
FRAMES = {
    "request_wellknown_keys": (
        b'POST /objects/acct_CQoS_Skeleton_2/deposit HTTP/1.0\r\n'
        b'x-cqos-cqos_client: 0608636c69656e742d31\r\n'
        b'x-cqos-cqos_request_id: 06057265713a37\r\n'
        b'x-cqos-cqos_priority: 0310\r\n'
        b'x-cqos-cqos_view_version: 0306\r\n'
        b'content-length: 11\r\n'
        b'\r\n'
        b'\x08\x01\x05@)\x00\x00\x00\x00\x00\x00'
    ),
    "request_escaped_keys": (
        b'POST /objects/acct/op HTTP/1.0\r\n'
        b'x-cqos-!060a4d697865642d43617365: 06046b657074\r\n'
        b'x-cqos-!0608636cc3a92de4b8ad: 00\r\n'
        b'x-cqos-!030e: 080203020304\r\n'
        b'x-cqos-cqos_signature: 070900ff1062696e617279\r\n'
        b'x-cqos-nested: 0a02060161080203020a01060162070101060163054004000000000000\r\n'
        b'content-length: 12\r\n'
        b'\r\n'
        b'\x08\x02\x06\x06h\xc3\xa9llo\x03\r'
    ),
    "request_no_piggyback_no_body": (
        b'POST /objects/registry/list HTTP/1.0\r\n'
        b'content-length: 0\r\n'
        b'\r\n'
    ),
    "response_bare_200": (
        b'HTTP/1.0 200 OK\r\n'
        b'content-length: 9\r\n'
        b'\r\n'
        b'\x05@YP\x00\x00\x00\x00\x00'
    ),
    "response_empty_200": (
        b'HTTP/1.0 200 OK\r\n'
        b'content-length: 0\r\n'
        b'\r\n'
    ),
    "response_400_application_exception": (
        b'HTTP/1.0 400 Bad Request\r\n'
        b'x-cqos-kind: application-exception\r\n'
        b'content-length: 95\r\n'
        b'\r\n'
        b'\x0b\x17bank::InsufficientFunds\n\x03\x06\x06reason\x06\x12insufficient funds\x06\trequested\x05@\x14\x00\x00\x00\x00\x00\x00\x06\tavailable\x05?\xf0\x00\x00\x00\x00\x00\x00'
    ),
    "response_404": (
        b'HTTP/1.0 404 Not Found\r\n'
        b'content-length: 34\r\n'
        b'\r\n'
        b'\n\x02\x06\x04type\x06\x08NotFound\x06\x07message\x06\x05ghost'
    ),
    "response_500": (
        b'HTTP/1.0 500 Internal Server Error\r\n'
        b'content-length: 64\r\n'
        b'\r\n'
        b'\n\x02\x06\x04type\x06\tBindError\x06\x07message\x06"http registry has no operation \'x\''
    ),
    "response_unknown_status": (
        b'HTTP/1.0 418 Unknown\r\n'
        b'content-length: 0\r\n'
        b'\r\n'
    ),
}
