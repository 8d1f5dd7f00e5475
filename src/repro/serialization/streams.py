"""Reuse of CDR output streams: explicit acquire/release.

PR 2 cached one reusable :class:`~repro.serialization.cdr.CdrOutputStream`
per thread (``threading.local``) for the GIOP encoders.  That scheme bakes
in the assumption *one marshal in flight per thread*, which fails as soon
as one thread interleaves logical requests: a buffer held across a
suspension point would be shared by two marshals (the regression test in
``tests/unit/test_stream_reuse.py`` demonstrates the interleaving under
``asyncio.gather``).

The replacement is a free list with explicit checkout:

- :func:`acquire_output_stream` pops a reset stream (or allocates one);
- :func:`release_output_stream` returns it once the caller has copied the
  encoded bytes out.

Each marshal owns its stream for exactly the acquire→release window, no
matter which thread, task, or loop callback runs it — concurrency-model
agnostic where thread-locals were thread-specific.  The pool is a plain
list mutated only by ``append``/``pop``, each a single atomic bytecode
under the GIL, so the hot path takes no lock.  Forgetting to release never
corrupts anything (the stream is just garbage-collected); releasing is
purely what makes reuse effective.
"""

from __future__ import annotations

from repro.serialization.cdr import CdrOutputStream

#: Upper bound on retained idle streams: enough for every serving thread
#: and benchmark client to hold one, without pinning unbounded
#: buffers after a concurrency spike.
_MAX_POOLED = 32

_pool: list[CdrOutputStream] = []


def acquire_output_stream() -> CdrOutputStream:
    """Check out a reset output stream; pair with :func:`release_output_stream`."""
    try:
        out = _pool.pop()
    except IndexError:
        return CdrOutputStream()
    out.reset()
    return out


def release_output_stream(out: CdrOutputStream) -> None:
    """Return a stream to the free list once its bytes have been copied out.

    The caller must not touch ``out`` (or any view of its buffer) after
    releasing: the next acquirer will reset and overwrite it.
    """
    if len(_pool) < _MAX_POOLED:
        _pool.append(out)


def pooled_stream_count() -> int:
    """Current free-list size (observability for tests)."""
    return len(_pool)
