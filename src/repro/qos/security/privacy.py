"""DES confidentiality for request parameters and reply values (§3.3).

"DesPrivacy encrypts and decrypts the request parameters and reply using
DES.  The client side uses a handler bound to readyToSend to encrypt the
request parameters and a handler bound to invokeSuccess to decrypt the
reply value.  …  The server side decryption of request parameters is
implemented by a handler that [runs] prior to all other [newServerRequest]
processing.  The server side encryption of the reply value is implemented
by a handler bound to invokeReturn."

Wire shape: the parameter vector is serialized (jser), DES-CBC encrypted,
and replaced by a single-element vector holding the ciphertext; the
piggyback flag announces encryption.  Replies travel as a
``{"__cqos_ct__": ciphertext}`` wrapper.  Under ActiveRep the per-replica
``readyToSend`` raises run concurrently, so encryption is guarded by the
request mutex and happens exactly once (all replicas share one parameter
vector — and must, since DES-CBC uses a random IV per encryption and
MajorityVote compares reply values after decryption).

One deviation from the prototype's description is deliberate: the paper
says the server decrypt handler *overrides* getParameters; here it runs
*before* it without halting, so SignedIntegrityServer and AccessControl can
still observe the event.  The observable pipeline (decrypt before anything
else, then parameter extraction) is identical.
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
from repro.core.request import PB_ENCRYPTED, Reply, Request
from repro.crypto.des import DesCipher
from repro.crypto.keys import resolve_key
from repro.qos.base import ATTR_SERVANT_EXCEPTION
from repro.serialization.jser import jser_dumps, jser_loads
from repro.serialization.tags import declare_names
from repro.util.errors import MarshalError

# Handler orders within the security layer (see package docstring).
ORDER_CLIENT_SIGN = 3
ORDER_CLIENT_ENCRYPT = 6
ORDER_SERVER_DECRYPT = 0
ORDER_SERVER_VERIFY = 5
ORDER_REPLY_VERIFY = 0
ORDER_REPLY_DECRYPT = 2
ORDER_REPLY_ENCRYPT = 50
ORDER_REPLY_SIGN = 55

CT_KEY = "__cqos_ct__"
declare_names(CT_KEY)

ATTR_WAS_ENCRYPTED = "privacy_was_encrypted"


@register_micro_protocol("DesPrivacy")
class DesPrivacy(MicroProtocol):
    """Client half: encrypt outgoing parameters, decrypt reply values."""

    name = "DesPrivacy"

    def __init__(self, key: bytes | None = None, key_hex: str | None = None):
        super().__init__()
        self._cipher = DesCipher(resolve_key(key, key_hex, self.name))

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.encrypt_params, order=ORDER_CLIENT_ENCRYPT)
        self.bind(EV_INVOKE_SUCCESS, self.decrypt_reply, order=ORDER_REPLY_DECRYPT)

    def encrypt_params(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        with request.mutex:
            if request.piggyback.get(PB_ENCRYPTED):
                return  # another replica's send already encrypted
            ciphertext = self._cipher.encrypt(jser_dumps(request.get_params()))
            request.set_params([ciphertext])
            request.piggyback[PB_ENCRYPTED] = True

    def decrypt_reply(self, occurrence: Occurrence) -> None:
        reply: Reply = occurrence.args[2]
        if isinstance(reply.value, dict) and CT_KEY in reply.value:
            ciphertext = reply.value[CT_KEY]
            if not isinstance(ciphertext, (bytes, bytearray)):
                raise MarshalError("encrypted reply does not carry bytes")
            reply.value = jser_loads(self._cipher.decrypt(ciphertext))


@register_micro_protocol("DesPrivacyServer")
class DesPrivacyServer(MicroProtocol):
    """Server half: decrypt incoming parameters, encrypt reply values."""

    name = "DesPrivacyServer"

    def __init__(self, key: bytes | None = None, key_hex: str | None = None):
        super().__init__()
        self._cipher = DesCipher(resolve_key(key, key_hex, self.name))

    def start(self) -> None:
        self.bind(EV_NEW_SERVER_REQUEST, self.decrypt_params, order=ORDER_SERVER_DECRYPT)
        self.bind(EV_INVOKE_RETURN, self.encrypt_reply, order=ORDER_REPLY_ENCRYPT)

    def decrypt_params(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        if not request.piggyback.get(PB_ENCRYPTED):
            return
        params = request.get_params()
        if len(params) != 1 or not isinstance(params[0], (bytes, bytearray)):
            raise MarshalError("encrypted request does not carry one ciphertext")
        plaintext = jser_loads(self._cipher.decrypt(params[0]))
        if type(plaintext) is not list:
            raise MarshalError("decrypted parameters are not a list")
        request.set_params(plaintext)
        # Clear the flag so replica forwarding ships plaintext exactly once;
        # remember locally that this client expects an encrypted reply.
        request.piggyback[PB_ENCRYPTED] = False
        request.attributes[ATTR_WAS_ENCRYPTED] = True

    def encrypt_reply(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        if not request.attributes.get(ATTR_WAS_ENCRYPTED):
            return
        if request.attributes.get(ATTR_SERVANT_EXCEPTION) is not None:
            return  # exceptions travel unencrypted, like the prototype
        ciphertext = self._cipher.encrypt(jser_dumps(request.stored_result))
        request.set_result({CT_KEY: ciphertext})
