"""The wire bytes of one TCP frame, stated without a socket: ``>IQ`` header
(payload length, 64-bit correlation id), then the payload.  ``encode_frame``
and ``FrameDecoder`` lived in ``repro.net.framing`` while a second transport
engine built its frames and parsed its reads with them; ``repro.net.tcp``
writes and reads frames straight on the socket (``write_frame_mux`` /
``read_frame_mux``), and these two stay as the differential oracle the
property tests hold those functions against.  The header layout and limit
are spelled out again here on purpose, not imported from ``src/``."""

from __future__ import annotations

import struct

from repro.util.errors import FrameTooLargeError

FRAME_HEADER = struct.Struct(">IQ")
MAX_FRAME = 64 * 1024 * 1024


def check_frame_size(size: int) -> None:
    if size > MAX_FRAME:
        raise FrameTooLargeError(f"frame too large: {size} bytes (max {MAX_FRAME})")


def encode_frame(request_id: int, payload) -> bytes:
    """One frame as standalone bytes; ``payload`` is any bytes-like object."""
    size = len(payload)
    check_frame_size(size)
    return FRAME_HEADER.pack(size, request_id) + bytes(payload)


class FrameDecoder:
    """Incremental frame parser, agnostic to chunk boundaries.

    ``feed(data)`` consumes one received chunk and returns the list of
    complete ``(request_id, payload)`` frames it finished; partial frames
    (a header or payload straddling the chunk boundary) are buffered until
    the next feed.  Raises :class:`FrameTooLargeError` as soon as an
    oversized length header is seen, before buffering its payload.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._need: int | None = None  # payload bytes still expected
        self._request_id = 0

    def feed(self, data) -> list[tuple[int, bytes]]:
        self._buf += data
        buf = self._buf
        frames: list[tuple[int, bytes]] = []
        pos = 0
        while True:
            if self._need is None:
                if len(buf) - pos < FRAME_HEADER.size:
                    break
                length, self._request_id = FRAME_HEADER.unpack_from(buf, pos)
                check_frame_size(length)
                pos += FRAME_HEADER.size
                self._need = length
            if len(buf) - pos < self._need:
                break
            frames.append((self._request_id, bytes(buf[pos : pos + self._need])))
            pos += self._need
            self._need = None
        del buf[:pos]
        return frames

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buf)
