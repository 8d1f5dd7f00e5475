"""The wire format: one place that defines the bytes.

Every frame on a TCP connection is a ``>IQ`` header (payload length,
64-bit correlation id) followed by the payload.  :mod:`repro.net.tcp` reads
and writes frames; this module holds the header layout, the size limit and
the one refusal both directions share.  ``tests/oracles/framing_reference.py``
states the same bytes independently, and the property tests hold
``write_frame_mux`` and ``FrameReader`` against it.
"""

from __future__ import annotations

import struct

from repro.util.errors import FrameTooLargeError

#: Frame header: payload length + correlation (request) id.
FRAME_HEADER = struct.Struct(">IQ")
#: Refuse frames above this size on both the sending and receiving side.
MAX_FRAME = 64 * 1024 * 1024


def check_frame_size(size: int) -> None:
    """Raise :class:`FrameTooLargeError` for payloads over :data:`MAX_FRAME`."""
    if size > MAX_FRAME:
        raise FrameTooLargeError(f"frame too large: {size} bytes (max {MAX_FRAME})")
