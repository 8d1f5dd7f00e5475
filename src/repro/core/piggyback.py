"""Piggyback on the wire: the header codec and the reply envelope.

The CORBA and RMI substrates ship the request's piggyback dict natively
(GIOP service context / JRMP call context); header-based transports use
:class:`PiggybackCodec`, and the reply leg — on which no substrate carries
context — uses the reply envelope below.
"""

from __future__ import annotations

import re
from typing import Any

from repro.serialization.jser import jser_dumps, jser_loads


class PiggybackCodec:
    """The textual header encoding of a piggyback dict.

    Each entry becomes one ``x-cqos-<key>`` header whose value is the hex
    of the key's jser-encoded value, so *any* marshallable value
    (non-string, non-ASCII, nested, binary) survives header transport
    losslessly.

    Header names are case-folded and latin-1-constrained by HTTP, so keys
    that are not safe lower-case tokens are escaped as ``x-cqos-!<hex of
    jser(key)>`` — ``!`` cannot appear in a safe token, making the escape
    unambiguous, and safe keys (every well-known ``cqos_*`` key of
    :mod:`repro.core.request`) keep their plain wire form.  No adapter
    enumerates keys, so a new ``PB_*`` constant needs nothing here.
    """

    PREFIX = "x-cqos-"
    _ESCAPE = "!"
    _SAFE_KEY = re.compile(r"[a-z0-9_.\-]+\Z")

    def encode_headers(self, piggyback: dict | None) -> dict[str, str]:
        """Encode a piggyback dict as transport-safe ``x-cqos-*`` headers."""
        headers: dict[str, str] = {}
        for key, value in (piggyback or {}).items():
            if isinstance(key, str) and self._SAFE_KEY.match(key):
                name = f"{self.PREFIX}{key}"
            else:
                name = f"{self.PREFIX}{self._ESCAPE}{jser_dumps(key).hex()}"
            headers[name] = jser_dumps(value).hex()
        return headers

    def decode_headers(self, headers: dict[str, str]) -> dict:
        """Decode ``x-cqos-*`` headers back into the piggyback dict."""
        piggyback: dict = {}
        for name, value in headers.items():
            if not name.startswith(self.PREFIX):
                continue
            raw_key = name[len(self.PREFIX):]
            if raw_key.startswith(self._ESCAPE):
                key = jser_loads(bytes.fromhex(raw_key[len(self._ESCAPE):]))
            else:
                key = raw_key
            piggyback[key] = jser_loads(bytes.fromhex(value))
        return piggyback


#: The process-wide codec instance.
PIGGYBACK_CODEC = PiggybackCodec()


# -- reply-direction piggyback envelope ---------------------------------------
#
# None of the three substrates carries context on the *reply* leg (the GIOP
# ReplyMessage has no service context; JRMP/HTTP replies are bare values), so
# reply-direction piggyback rides inside the reply value itself: when a server
# micro-protocol staged entries in ``Request.reply_piggyback``, the Cactus
# server wraps the return value in a reserved-key envelope that the client
# platform strips before completing the request.  Zero cost (no wrapping) for
# requests with nothing staged, and no wire-format change on any platform.

#: Reserved marker key of the reply envelope (never a legitimate app value).
REPLY_ENVELOPE_KEY = "__cqos_reply__"
_REPLY_ENVELOPE_VALUE = "v"


def wrap_reply_value(value: Any, reply_piggyback: dict) -> Any:
    """Envelope ``value`` with reply-direction piggyback (no-op when empty)."""
    if not reply_piggyback:
        return value
    return {REPLY_ENVELOPE_KEY: dict(reply_piggyback), _REPLY_ENVELOPE_VALUE: value}


def unwrap_reply_value(value: Any) -> tuple[Any, dict | None]:
    """Split a reply into ``(value, reply_piggyback | None)``."""
    if (
        isinstance(value, dict)
        and len(value) == 2
        and REPLY_ENVELOPE_KEY in value
        and _REPLY_ENVELOPE_VALUE in value
    ):
        return value[_REPLY_ENVELOPE_VALUE], dict(value[REPLY_ENVELOPE_KEY])
    return value, None
