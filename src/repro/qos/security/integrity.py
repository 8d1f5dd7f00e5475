"""Message integrity via a signature-based scheme (§3.3).

"Integrity is provided by a signature-based scheme implemented by
micro-protocols at the client and server."  With the prototype's symmetric
keys the signature is a keyed MAC (:mod:`repro.crypto.mac`).

What is signed:

- requests — the canonical serialization of
  ``[object_id, operation, params]``, computed over the *plaintext*
  parameters (the client signs before DesPrivacy encrypts; the server
  verifies after DesPrivacyServer decrypts — see the order constants in
  :mod:`repro.qos.security.privacy`); the signature piggybacks on the
  request;
- replies — the serialized reply value as sent (i.e. over the ciphertext
  wrapper when privacy is also configured), wrapped as
  ``{"__cqos_sig__": sig, "v": value}`` since platform replies carry no
  piggyback slot.  The client verifies before decrypting.

Verification failure raises :class:`~repro.util.errors.IntegrityError`: on
the server it rejects the request before the servant runs; on the client it
surfaces as the reply's outcome (a failed-integrity reply must never be
silently accepted, even by voting — the handler substitutes the error for
the value before acceptance protocols see it).
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import Occurrence
from repro.core.events import (
    EV_INVOKE_RETURN,
    EV_INVOKE_SUCCESS,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_SEND,
)
from repro.core.request import PB_SIGNATURE, Reply, Request
from repro.crypto.keys import resolve_key
from repro.crypto.mac import KeyedMac
from repro.qos.base import ATTR_SERVANT_EXCEPTION
from repro.qos.security.privacy import (
    ORDER_CLIENT_SIGN,
    ORDER_REPLY_SIGN,
    ORDER_REPLY_VERIFY,
    ORDER_SERVER_VERIFY,
)
from repro.serialization.jser import jser_dumps
from repro.serialization.tags import declare_names
from repro.util.errors import IntegrityError

SIG_KEY = "__cqos_sig__"
VALUE_KEY = "v"
declare_names(SIG_KEY, VALUE_KEY)
ATTR_SIGNED = "integrity_signed"
ATTR_WANTS_SIGNED_REPLY = "integrity_reply"


def _request_blob(request: Request) -> bytes:
    """What a request signature covers, in canonical form."""
    return jser_dumps([request.object_id, request.operation, request.get_params()])


@register_micro_protocol("SignedIntegrity")
class SignedIntegrity(MicroProtocol):
    """Client half: sign requests, verify reply signatures."""

    name = "SignedIntegrity"

    def __init__(self, key: bytes | None = None, key_hex: str | None = None):
        super().__init__()
        self._mac = KeyedMac(resolve_key(key, key_hex, self.name))

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.sign_request, order=ORDER_CLIENT_SIGN)
        self.bind(EV_INVOKE_SUCCESS, self.verify_reply, order=ORDER_REPLY_VERIFY)

    def sign_request(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        with request.mutex:
            if request.attributes.get(ATTR_SIGNED):
                return
            request.piggyback[PB_SIGNATURE] = self._mac.digest(_request_blob(request))
            request.attributes[ATTR_SIGNED] = True

    def verify_reply(self, occurrence: Occurrence) -> None:
        reply: Reply = occurrence.args[2]
        if not (isinstance(reply.value, dict) and SIG_KEY in reply.value):
            return
        signature = reply.value[SIG_KEY]
        value = reply.value.get(VALUE_KEY)
        if self._mac.verify(jser_dumps(value), signature):
            reply.value = value
        else:
            reply.value = None
            reply.exception = IntegrityError(
                f"reply signature verification failed (server {reply.server})"
            )


@register_micro_protocol("SignedIntegrityServer")
class SignedIntegrityServer(MicroProtocol):
    """Server half: verify request signatures, sign replies."""

    name = "SignedIntegrityServer"

    def __init__(self, key: bytes | None = None, key_hex: str | None = None):
        super().__init__()
        self._mac = KeyedMac(resolve_key(key, key_hex, self.name))

    def start(self) -> None:
        self.bind(EV_NEW_SERVER_REQUEST, self.verify_request, order=ORDER_SERVER_VERIFY)
        self.bind(EV_INVOKE_RETURN, self.sign_reply, order=ORDER_REPLY_SIGN)

    def verify_request(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        signature = request.piggyback.get(PB_SIGNATURE)
        if not self._mac.verify(_request_blob(request), signature):
            request.fail(
                IntegrityError(
                    f"request signature {'missing' if signature is None else 'invalid'} "
                    f"for {request.operation}"
                )
            )
            occurrence.halt_all()
            return
        request.attributes[ATTR_WANTS_SIGNED_REPLY] = True

    def sign_reply(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        if not request.attributes.get(ATTR_WANTS_SIGNED_REPLY):
            return
        if request.attributes.get(ATTR_SERVANT_EXCEPTION) is not None:
            return
        value = request.stored_result
        request.set_result(
            {SIG_KEY: self._mac.digest(jser_dumps(value)), VALUE_KEY: value}
        )
