"""Security micro-protocols (paper section 3.3).

- :class:`~repro.qos.security.privacy.DesPrivacy` /
  :class:`~repro.qos.security.privacy.DesPrivacyServer` — message
  confidentiality: DES encryption of the request parameters and the reply
  value (the paper notes this is slightly less than CORBA Security Level 1,
  which encrypts the whole message — same here: operation names and
  piggyback travel in the clear);
- :class:`~repro.qos.security.integrity.SignedIntegrity` /
  :class:`~repro.qos.security.integrity.SignedIntegrityServer` — message
  integrity via a signature-based (keyed-MAC) scheme over parameters and
  replies;
- :class:`~repro.qos.security.access.AccessControl` — server-side
  per-operation access control keyed on the piggybacked client identity.

Layering ("the decryption handler is executed transparently prior to all
other handlers"): on the request path the client signs the plaintext
parameters, then encrypts; the server decrypts first, then verifies.  On
the reply path the server encrypts, then signs (so the client verifies
before decrypting).  Handler orders encode this and are stable whichever
subset of the three protocols is configured.
"""
