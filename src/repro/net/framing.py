"""The wire format, engine-neutral: one place that defines the bytes.

Both execution engines — the threaded leader/follower demultiplexer in
:mod:`repro.net.tcp` and the event-loop engine in :mod:`repro.net.aio` —
speak the same correlation-id frame format: a ``>IQ`` header (payload
length, 64-bit request id) followed by the payload.  This module holds the
format itself plus the two pieces both engines and the test suite need:

- :func:`encode_frame` — one frame as bytes (header + payload), exactly the
  byte sequence the threaded :func:`repro.net.tcp.write_frame_mux` puts on
  a socket.  Batching is pure concatenation of such frames, so a batched
  stream is byte-identical to an unbatched one — the invariant the
  differential framing tests pin down.
- :class:`FrameDecoder` — an incremental, chunk-agnostic parser: feed it
  arbitrary byte slices (whatever ``recv``/``data_received`` delivered) and
  it yields complete ``(request_id, payload)`` frames.  Any re-chunking of
  the same byte stream decodes to the same frame sequence, which is what
  makes sender-side coalescing invisible to the receiver.

Keeping this free of sockets and event loops lets property tests exercise
the batching/chunking algebra exhaustively without opening a connection.
"""

from __future__ import annotations

import struct

from repro.util.errors import FrameTooLargeError

#: Frame header: payload length + correlation (request) id.
FRAME_HEADER = struct.Struct(">IQ")
#: Refuse frames above this size on both the sending and receiving side.
MAX_FRAME = 64 * 1024 * 1024

_HDR_SIZE = FRAME_HEADER.size


def check_frame_size(size: int) -> None:
    """Raise :class:`FrameTooLargeError` for payloads over :data:`MAX_FRAME`."""
    if size > MAX_FRAME:
        raise FrameTooLargeError(f"frame too large: {size} bytes (max {MAX_FRAME})")


def encode_frame(request_id: int, payload) -> bytes:
    """Encode one frame (``>IQ`` header + payload) as standalone bytes.

    ``payload`` may be any bytes-like object.  The result is bit-identical
    to what the threaded engine's ``write_frame_mux`` sends for the same
    ``(request_id, payload)``.
    """
    size = len(payload)
    check_frame_size(size)
    return FRAME_HEADER.pack(size, request_id) + bytes(payload)


class FrameDecoder:
    """Incremental frame parser, agnostic to chunk boundaries.

    ``feed(data)`` consumes one received chunk and returns the list of
    complete ``(request_id, payload)`` frames it finished; partial frames
    (a header or payload straddling the chunk boundary) are buffered until
    the next feed.  Raises :class:`FrameTooLargeError` as soon as an
    oversized length header is seen — before buffering its payload — so a
    hostile or corrupt stream fails fast.
    """

    __slots__ = ("_buf", "_need", "_request_id")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._need: int | None = None  # payload bytes still expected
        self._request_id = 0

    def feed(self, data) -> list[tuple[int, bytes]]:
        if self._buf:
            self._buf += data
            buf = self._buf
            held = True
        else:
            # Fast path: nothing buffered, parse straight out of the chunk
            # (no copy of the whole payload into the holdover buffer).
            buf = data
            held = False
        frames: list[tuple[int, bytes]] = []
        pos = 0
        size = len(buf)
        while True:
            if self._need is None:
                if size - pos < _HDR_SIZE:
                    break
                length, self._request_id = FRAME_HEADER.unpack_from(buf, pos)
                check_frame_size(length)
                pos += _HDR_SIZE
                self._need = length
            if size - pos < self._need:
                break
            frames.append((self._request_id, bytes(buf[pos : pos + self._need])))
            pos += self._need
            self._need = None
        if held:
            if pos:
                del buf[:pos]
        elif pos < size:
            self._buf += buf[pos:] if pos else buf
        return frames

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buf)
