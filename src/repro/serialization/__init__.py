"""Wire-format codecs for the two middleware substrates.

Two from-scratch binary codecs, mirroring the two platforms the paper targets:

- :mod:`repro.serialization.cdr` — a CDR-like stream codec used by the
  CORBA-like ORB's GIOP messages (explicit primitive read/write operations,
  big-endian, length-prefixed strings).
- :mod:`repro.serialization.jser` — a Java-serialization-like tagged codec
  used by the RMI-like platform (self-describing tagged values, reference
  handles for shared/cyclic structure, registered value classes).

Both refuse to encode unsupported types with :class:`~repro.util.errors.MarshalError`
rather than silently pickling arbitrary objects.
"""
