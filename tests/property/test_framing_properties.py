"""Property tests for the frame format and the code that speaks it.

The oracle (``tests/oracles/framing_reference.py``) states the wire bytes
without a socket; the algebra it must satisfy is:

- frames concatenate: any grouping of frames into consecutive writes is
  byte-identical to writing them one at a time;
- any re-chunking of that byte stream, down to single bytes, decodes to the
  identical ``(request_id, payload)`` sequence.

``repro.net.tcp`` is then held to the oracle: ``write_frame_mux`` puts
exactly ``encode_frame``'s bytes on the socket on both of its branches (one
``sendall`` for a small ``bytes`` payload, two for a large or non-``bytes``
one), and a ``FrameReader`` over a socket that returns whatever chunk sizes
it likes (several frames in one chunk included) yields exactly the oracle
decoder's frames, refusing an over-limit header before it reads a byte of
its payload; a stream cut anywhere yields its whole frames and then fails,
never a short payload.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import framing
from repro.net.tcp import FrameReader, write_frame_mux
from repro.util.errors import CommunicationError, FrameTooLargeError
from tests.oracles.framing_reference import FrameDecoder, encode_frame

request_ids = st.integers(min_value=0, max_value=2**64 - 1)
frames_strategy = st.lists(
    st.tuples(request_ids, st.binary(max_size=200)), min_size=0, max_size=20
)


def _chunkify(data: bytes, cut_points: list[int]) -> list[bytes]:
    """Split ``data`` at the (normalized) cut points."""
    cuts = sorted({min(c, len(data)) for c in cut_points})
    chunks = []
    previous = 0
    for cut in cuts:
        chunks.append(data[previous:cut])
        previous = cut
    chunks.append(data[previous:])
    return chunks


@given(frames=frames_strategy, data=st.data())
def test_any_batch_grouping_is_byte_identical_to_unbatched(frames, data):
    unbatched = b"".join(encode_frame(rid, payload) for rid, payload in frames)
    # Partition the frame list into arbitrary consecutive batches.
    batches: list[bytes] = []
    index = 0
    while index < len(frames):
        size = data.draw(st.integers(min_value=1, max_value=len(frames) - index))
        group = frames[index : index + size]
        batches.append(b"".join(encode_frame(rid, p) for rid, p in group))
        index += size
    assert b"".join(batches) == unbatched


@given(frames=frames_strategy, data=st.data())
def test_any_rechunking_decodes_to_the_same_frames(frames, data):
    stream = b"".join(encode_frame(rid, payload) for rid, payload in frames)
    cut_points = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(len(stream), 1)), max_size=30)
    )
    decoder = FrameDecoder()
    decoded: list[tuple[int, bytes]] = []
    for chunk in _chunkify(stream, cut_points):
        decoded.extend(decoder.feed(chunk))
    assert decoded == frames
    assert decoder.buffered == 0


@given(frames=frames_strategy)
def test_single_byte_feeding_decodes_identically(frames):
    stream = b"".join(encode_frame(rid, payload) for rid, payload in frames)
    decoder = FrameDecoder()
    decoded: list[tuple[int, bytes]] = []
    for i in range(len(stream)):
        decoded.extend(decoder.feed(stream[i : i + 1]))
    assert decoded == frames


class _RecordingSocket:
    def __init__(self):
        self.sends: list[bytes] = []

    def sendall(self, data):
        self.sends.append(bytes(data))


class _ChunkedSocket:
    """``recv`` hands out the stream in the chunk sizes it was given, never
    more than asked for; once the sizes run out it returns all that was
    asked for, and ``b""`` at end of stream.  ``ends`` records the stream
    position after each ``recv``."""

    def __init__(self, stream: bytes, sizes: list[int]):
        self._stream = stream
        self._sizes = list(sizes)
        self.pos = 0
        self.ends: list[int] = []

    def recv(self, n: int) -> bytes:
        if self._sizes:
            n = min(n, self._sizes.pop(0))
        chunk = self._stream[self.pos : self.pos + n]
        self.pos += len(chunk)
        self.ends.append(self.pos)
        return chunk


# One frame above the 0xFFFF one-sendall threshold in a few examples, and
# the three bytes-like types the encoders hand in.
payloads = st.one_of(
    st.binary(max_size=200),
    st.integers(min_value=0xFFFF - 2, max_value=0xFFFF + 2).map(lambda n: b"p" * n),
)
wrappers = st.sampled_from([bytes, bytearray, memoryview])


@settings(max_examples=60)
@given(frames=st.lists(st.tuples(request_ids, payloads, wrappers), max_size=8))
def test_write_frame_mux_sends_the_oracle_bytes(frames):
    sock = _RecordingSocket()
    for request_id, payload, wrap in frames:
        before = len(sock.sends)
        write_frame_mux(sock, request_id, wrap(payload))
        one_send = wrap is bytes and len(payload) <= 0xFFFF
        assert len(sock.sends) - before == (1 if one_send else 2)
    assert b"".join(sock.sends) == b"".join(
        encode_frame(request_id, payload) for request_id, payload, _ in frames
    )


# Chunk sizes up to a few frames long, so one chunk often holds several.
chunk_sizes = st.lists(st.integers(min_value=1, max_value=600), max_size=200)


@given(frames=frames_strategy, sizes=chunk_sizes)
def test_frame_reader_over_any_recv_chunking_yields_the_oracle_frames(frames, sizes):
    stream = b"".join(encode_frame(rid, payload) for rid, payload in frames)
    sock = _ChunkedSocket(stream, sizes)
    reader = FrameReader(sock)
    assert [reader.read() for _ in frames] == FrameDecoder().feed(stream)
    assert sock.pos == len(stream)
    assert reader.pos == reader.end  # nothing left buffered


@given(
    request_id=request_ids,
    excess=st.integers(min_value=1, max_value=2**32 - 1 - framing.MAX_FRAME),
    sizes=st.lists(st.integers(min_value=1, max_value=12), max_size=12),
)
def test_frame_reader_refuses_an_over_limit_header_before_its_payload(
    request_id, excess, sizes
):
    header = framing.FRAME_HEADER.pack(framing.MAX_FRAME + excess, request_id)
    sock = _ChunkedSocket(header + b"payload bytes that must stay unread", sizes)
    with pytest.raises(FrameTooLargeError):
        FrameReader(sock).read()
    # The recv that completed the header was the last one: whatever payload
    # bytes came in the same chunk, none was asked for after it.
    assert sock.ends[-1] >= len(header)
    assert len(sock.ends) == 1 or sock.ends[-2] < len(header)


@given(
    frames=st.lists(st.tuples(request_ids, st.binary(max_size=200)), min_size=1, max_size=20),
    data=st.data(),
)
def test_frame_reader_over_a_cut_stream_yields_whole_frames_then_fails(frames, data):
    stream = b"".join(encode_frame(rid, payload) for rid, payload in frames)
    prefix = stream[: data.draw(st.integers(min_value=0, max_value=len(stream) - 1))]
    sizes = data.draw(chunk_sizes)
    sock = _ChunkedSocket(prefix, sizes)
    reader = FrameReader(sock)
    whole = FrameDecoder().feed(prefix)
    assert [reader.read() for _ in whole] == whole
    with pytest.raises(CommunicationError):
        reader.read()
