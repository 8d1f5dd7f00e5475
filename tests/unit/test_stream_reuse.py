"""Regression tests for CDR output-stream reuse.

PR 2 cached one reusable output stream per *thread*; on an event loop one
thread interleaves many logical marshals, so a stream held across a
suspension point would be shared by two encodes.  These tests pin the
explicit acquire/release discipline that replaced it: under
``asyncio.gather`` every concurrently-held stream is a distinct object with
an isolated buffer, even though every task runs on one loop thread — the
exact interleaving (write, await, write) that corrupts any one-slot
thread-local scheme.
"""

import asyncio

from repro.orb import giop
from repro.serialization.streams import (
    acquire_output_stream,
    release_output_stream,
)


class TestAcquireRelease:
    def test_reuse_after_release(self):
        first = acquire_output_stream()
        first.write_ulong(7)
        release_output_stream(first)
        second = acquire_output_stream()
        # Same object back, reset for the new marshal.
        assert second is first
        assert second.getvalue() == b""
        release_output_stream(second)

    def test_concurrent_holders_get_distinct_streams(self):
        # Two marshals in flight at once — nested encode, or two tasks on
        # one loop thread — must never share a buffer.
        a = acquire_output_stream()
        b = acquire_output_stream()
        assert a is not b
        a.write_ulong(1)
        b.write_ulong(2)
        assert a.getvalue() != b.getvalue()
        release_output_stream(a)
        release_output_stream(b)

    def test_interleaved_marshals_under_gather(self):
        # The one-thread interleaving: every task acquires, writes, yields
        # to the loop (other tasks run and write), writes again, and checks
        # that its buffer holds exactly its own bytes.  A thread-local
        # single-stream cache fails this: all tasks share the loop thread.
        async def marshal(tag: int) -> bytes:
            out = acquire_output_stream()
            try:
                out.write_ulong(tag)
                await asyncio.sleep(0)  # suspension point mid-marshal
                out.write_string(f"payload-{tag}")
                await asyncio.sleep(0)
                out.write_ulong(tag)
                return out.getvalue()
            finally:
                release_output_stream(out)

        async def run() -> list[bytes]:
            return await asyncio.gather(*(marshal(t) for t in range(16)))

        results = asyncio.run(run())
        for tag, encoded in enumerate(results):
            expected = acquire_output_stream()
            try:
                expected.write_ulong(tag)
                expected.write_string(f"payload-{tag}")
                expected.write_ulong(tag)
                assert encoded == expected.getvalue(), f"marshal {tag} corrupted"
            finally:
                release_output_stream(expected)


class TestGiopUnderGather:
    def test_encode_request_is_interleaving_safe(self):
        # Whole-message check: concurrent GIOP encodes on one loop thread
        # produce exactly the bytes sequential encodes produce.
        def message(tag: int) -> giop.RequestMessage:
            return giop.RequestMessage(
                request_id=tag,
                object_key=f"poa|obj-{tag}",
                operation="op",
                arguments=[tag, f"arg-{tag}", [tag] * 3],
                context={"k": tag},
            )

        sequential = [giop.encode_request(message(t)) for t in range(12)]

        async def encode(tag: int) -> bytes:
            await asyncio.sleep(0)
            frame = giop.encode_request(message(tag))
            await asyncio.sleep(0)
            return frame

        async def run() -> list[bytes]:
            return await asyncio.gather(*(encode(t) for t in range(12)))

        assert asyncio.run(run()) == sequential

    def test_encode_decode_round_trip_under_gather(self):
        async def round_trip(tag: int) -> giop.RequestMessage:
            frame = giop.encode_request(
                giop.RequestMessage(
                    request_id=tag,
                    object_key="k",
                    operation="op",
                    arguments=[tag],
                )
            )
            await asyncio.sleep(0)
            return giop.decode_message(frame)

        async def run():
            return await asyncio.gather(*(round_trip(t) for t in range(8)))

        for tag, decoded in enumerate(asyncio.run(run())):
            assert decoded.request_id == tag
            assert decoded.arguments == [tag]
