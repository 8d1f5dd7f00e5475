"""Cryptographic substrate for the security micro-protocols.

The paper's ``DesPrivacy`` micro-protocol encrypts request parameters and
reply values with DES; integrity uses a signature-based scheme.  Neither
algorithm is available here as a dependency, so:

- :mod:`repro.crypto.des` is a from-scratch pure-Python DES (ECB and CBC
  modes, PKCS#5 padding) validated against published test vectors, and
- :mod:`repro.crypto.mac` implements the HMAC construction (RFC 2104) over
  :mod:`hashlib` digests for the signature scheme.
- :mod:`repro.crypto.keys` resolves the shared key each micro-protocol is
  given, standing in for the out-of-band key distribution the paper assumes.

Neither cipher nor MAC costs a process anything until it is used: DES
derives its tables when the first ``DesCipher`` is made, and the MAC imports
:mod:`hashlib` (which loads OpenSSL's libcrypto) when the first
``KeyedMac`` is built.
"""
