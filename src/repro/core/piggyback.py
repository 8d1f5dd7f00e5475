"""Piggyback on the reply leg: the reply envelope.

Every substrate ships the *request's* piggyback dict natively (GIOP service
context, JRMP call context, ``x-cqos-*`` headers written and read by
:mod:`repro.http.message`); none carries context on the *reply* leg (the
GIOP ReplyMessage has no service context; JRMP/HTTP replies are bare
values), so reply-direction piggyback rides inside the reply value itself:
when a server micro-protocol staged entries in ``Request.reply_piggyback``,
the Cactus server wraps the return value in a reserved-key envelope that the
client platform strips before completing the request.  Zero cost (no
wrapping) for requests with nothing staged, and no wire-format change on
any platform.
"""

from __future__ import annotations

from typing import Any

from repro.util.errors import MarshalError

#: Reserved marker key of the reply envelope (never a legitimate app value).
REPLY_ENVELOPE_KEY = "__cqos_reply__"
_REPLY_ENVELOPE_VALUE = "v"


def wrap_reply_value(value: Any, reply_piggyback: dict) -> Any:
    """Envelope ``value`` with reply-direction piggyback (no-op when empty)."""
    if not reply_piggyback:
        return value
    return {REPLY_ENVELOPE_KEY: dict(reply_piggyback), _REPLY_ENVELOPE_VALUE: value}


def unwrap_reply_value(value: Any) -> tuple[Any, dict | None]:
    """Split a reply into ``(value, reply_piggyback | None)``; an envelope
    whose piggyback is not a dict is a :class:`MarshalError`."""
    if (
        isinstance(value, dict)
        and len(value) == 2
        and REPLY_ENVELOPE_KEY in value
        and _REPLY_ENVELOPE_VALUE in value
    ):
        piggyback = value[REPLY_ENVELOPE_KEY]
        if not isinstance(piggyback, dict):
            raise MarshalError(f"reply envelope piggyback is a {type(piggyback).__name__}")
        return value[_REPLY_ENVELOPE_VALUE], dict(piggyback)
    return value, None
