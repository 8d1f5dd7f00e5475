"""Asyncio-native execution engine for the TCP transport.

The sibling of the threaded engine in :mod:`repro.net.tcp`, selected with
``TcpNetwork(engine="async")`` (or ``CQOS_ENGINE=async``): same
correlation-id wire format, same :class:`~repro.net.transport.Connection` /
:class:`~repro.net.transport.Listener` contracts, different concurrency
machinery underneath.

One background event loop per network (:class:`AsyncEngineRuntime`) frames
every connection of that network:

- **client side** (:class:`AsyncMuxConnection`): callers stay on their own
  threads and block on a per-call future; the submission hops onto the loop
  as one plain callback — no coroutine or task on the hot path — which
  registers the correlation id and hands the frame to the batcher.  A
  caller timeout abandons only its own correlation id: the stream stays
  framed and the late reply is dropped, strictly better than the threaded
  leader-timeout reset.
- **server side** (:class:`AsyncTcpListener`): a single ``asyncio`` server
  demultiplexes every accepted connection on the loop; completed requests
  are handed to servants through the runtime's bounded thread-pool executor
  so blocking servants keep working.  Handlers that prove non-blocking
  (sub-``_SLOW_HANDLER`` for a streak of calls) are promoted to run inline
  on the loop — zero handoff, the echo fast path — and demoted permanently
  the first time they run slow.  Handlers marked with
  :func:`~repro.net.transport.blocking_handler` (all middleware endpoints:
  servants may block arbitrarily) are never promoted;
  ``CQOS_ASYNC_INLINE=0`` disables promotion globally.
- **adaptive batch flushing** (:class:`FrameBatcher`, both directions):
  small outbound frames on one connection are coalesced into a single
  ``send`` — flushed when a size threshold is hit or when the loop goes
  idle (one ``call_soon`` hop collects everything queued in the same loop
  iteration) — amortizing one syscall and one reader wakeup across many
  correlation ids.  An optional linger (``CQOS_BATCH_LINGER``, seconds)
  additionally holds a lone frame briefly once the connection has shown
  concurrent traffic; it is **off by default** because measurements show
  closed-loop request/reply traffic convoys behind the timer (each wave's
  first frame waits out the linger) while loop-idle coalescing already
  batches same-wave frames.  Batching is pure concatenation of frames,
  so the bytes on the wire are bit-identical to the threaded engine's.

Crash injection and recovery mirror the threaded listener exactly: suspend
unpublishes the address atomically with dropping the server, aborts every
accepted connection, and refuses to execute requests read before the crash;
resume re-opens on a fresh port under the same logical address.
"""

from __future__ import annotations

import asyncio
import collections
import concurrent.futures
import itertools
import os
import select
import threading
import time
import weakref

from repro.net.framing import FrameDecoder, FRAME_HEADER, check_frame_size
from repro.net.transport import Connection, FrameHandler, Listener, ReplyFuture
from repro.util.errors import (
    CommunicationError,
    FrameTooLargeError,
    ServerFailedError,
    TimeoutError_,
)
from repro.util.log import get_logger

logger = get_logger("net.aio")

#: Outbound-batch linger (seconds) once a connection has shown concurrency.
#: Off by default: loop-idle coalescing already batches same-wave frames,
#: and a timer convoys closed-loop traffic.  Opt in for open-loop senders.
BATCH_LINGER_ENV = "CQOS_BATCH_LINGER"
#: Flush immediately once this many pending outbound bytes accumulate.
BATCH_BYTES_ENV = "CQOS_BATCH_BYTES"
#: Set to ``0`` to keep every handler on the executor (no inline promotion).
ASYNC_INLINE_ENV = "CQOS_ASYNC_INLINE"

_DEFAULT_LINGER = 0.0
_DEFAULT_BATCH_BYTES = 64 * 1024

#: Servant executor size: generous, because nested calls (replica
#: forwarding, control pings) occupy a worker while they wait on another.
_ASYNC_WORKERS = max(16, 4 * (os.cpu_count() or 1))

#: Handler duration (seconds) separating "inline on the loop" from
#: "offload to the executor" — same constant as the threaded engine.
_SLOW_HANDLER = 0.0002

#: Consecutive fast executor runs before a handler is promoted to inline.
_PROMOTE_AFTER = 16


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value >= 0 else default


def _inline_enabled() -> bool:
    return os.environ.get(ASYNC_INLINE_ENV, "1") != "0"


class AsyncEngineRuntime:
    """One event loop + one bounded servant executor, shared per network.

    The loop thread owns every socket of the network; servant execution
    happens on the executor (or inline for promoted handlers).  Batch
    counters are incremented only from the loop thread, so reads from other
    threads are lock-free snapshots.
    """

    def __init__(self, name: str = "cqos-aio"):
        self.loop = asyncio.new_event_loop()
        self.executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=_ASYNC_WORKERS, thread_name_prefix=f"{name}-servant"
        )
        # Cumulative across every batcher of this runtime (client + server).
        self.frames_out = 0
        self.flushes = 0
        self.bytes_out = 0
        self._stats_sources: weakref.WeakSet = weakref.WeakSet()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"{name}-loop"
        )
        self._thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_forever()
        finally:
            try:
                self.loop.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass

    def call_soon(self, callback, *args) -> bool:
        """Schedule on the loop from any thread; False once shut down."""
        try:
            self.loop.call_soon_threadsafe(callback, *args)
        except RuntimeError:
            return False
        return True

    def submit(self, coro) -> concurrent.futures.Future:
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def register_stats_source(self, source) -> None:
        """Track an object with its own batching counters (weakly held).

        Client connections write from caller threads and keep their
        counters locally; :meth:`batch_stats` folds them in.
        """
        self._stats_sources.add(source)

    def batch_stats(self) -> dict:
        """Cumulative outbound batching counters (frames vs send syscalls)."""
        frames, flushes, out = self.frames_out, self.flushes, self.bytes_out
        for source in tuple(self._stats_sources):
            frames += source._frames_out
            flushes += source._flushes
            out += source._bytes_out
        return {
            "frames_out": frames,
            "flushes": flushes,
            "bytes_out": out,
            "frames_per_flush": round(frames / flushes, 3) if flushes else None,
        }

    def shutdown(self) -> None:
        if not self.loop.is_closed():
            if self.call_soon(self._stop_on_loop):
                self._thread.join(timeout=5.0)
        self.executor.shutdown(wait=False, cancel_futures=True)

    def _stop_on_loop(self) -> None:
        for task in asyncio.all_tasks(self.loop):
            task.cancel()
        # One more iteration so cancellations deliver before the loop stops.
        self.loop.call_soon(self.loop.stop)


class FrameBatcher:
    """Adaptive outbound frame coalescing on one asyncio transport.

    Loop-affine: every method runs on the runtime's loop thread.  Frames
    are appended as (header, payload) parts and flushed as one
    ``transport.write`` — one send syscall when the transport buffer is
    drained — on the first of:

    - **size**: pending bytes reach ``max_bytes``;
    - **loop idle**: a ``call_soon`` scheduled at first append runs after
      every callback that was already ready this iteration, collecting all
      frames produced by the same wave of completions/submissions;
    - **linger** (opt-in, ``linger > 0``): when only one small frame is
      pending at the idle flush but the *previous* batch carried several
      (the connection is visibly concurrent), the flush waits ``linger``
      seconds to let stragglers coalesce — released early as soon as the
      wave re-forms (pending frames reach the previous batch size).
      Serial traffic (previous batch of one) never waits.  Off by default:
      closed-loop request/reply traffic convoys behind the timer, and
      loop-idle coalescing already batches same-wave frames.
    """

    __slots__ = (
        "_loop",
        "_transport",
        "_runtime",
        "_linger",
        "_max_bytes",
        "_parts",
        "_pending_bytes",
        "_pending_frames",
        "_last_batch_frames",
        "_handle",
        "_lingering",
    )

    def __init__(
        self,
        loop,
        transport,
        runtime: AsyncEngineRuntime,
        linger: float | None = None,
        max_bytes: int | None = None,
    ):
        self._loop = loop
        self._transport = transport
        self._runtime = runtime
        self._linger = (
            _env_float(BATCH_LINGER_ENV, _DEFAULT_LINGER) if linger is None else linger
        )
        self._max_bytes = (
            int(_env_float(BATCH_BYTES_ENV, _DEFAULT_BATCH_BYTES))
            if max_bytes is None
            else max_bytes
        )
        self._parts: list = []
        self._pending_bytes = 0
        self._pending_frames = 0
        self._last_batch_frames = 0
        self._handle = None
        self._lingering = False

    def send(self, request_id: int, payload) -> None:
        """Queue one frame; raises FrameTooLargeError before buffering."""
        size = len(payload)
        check_frame_size(size)
        self._parts.append(FRAME_HEADER.pack(size, request_id))
        self._parts.append(payload)
        self._pending_bytes += FRAME_HEADER.size + size
        self._pending_frames += 1
        if self._pending_bytes >= self._max_bytes:
            self._flush()
        elif self._lingering and self._pending_frames >= self._last_batch_frames:
            # The wave that justified lingering has re-formed: flush now
            # instead of waiting out the timer (a closed-loop workload would
            # otherwise convoy behind every wave's first frame).
            self._flush()
        elif self._handle is None:
            self._lingering = False
            self._handle = self._loop.call_soon(self._idle_flush)

    def _idle_flush(self) -> None:
        self._handle = None
        if (
            self._linger > 0
            and not self._lingering
            and self._pending_frames == 1
            and self._last_batch_frames > 1
        ):
            # Concurrent traffic but a lone frame right now: wait briefly
            # for the rest of the wave instead of paying a syscall per frame.
            self._lingering = True
            self._handle = self._loop.call_later(self._linger, self._flush)
            return
        self._flush()

    def _flush(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._lingering = False
        if not self._parts:
            return
        data = b"".join(self._parts)
        self._parts.clear()
        self._last_batch_frames = self._pending_frames
        runtime = self._runtime
        runtime.frames_out += self._pending_frames
        runtime.flushes += 1
        runtime.bytes_out += len(data)
        self._pending_bytes = 0
        self._pending_frames = 0
        self._transport.write(data)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        self._parts.clear()
        self._pending_bytes = 0
        self._pending_frames = 0


# -- client side ---------------------------------------------------------------


class _MuxClientProtocol(asyncio.Protocol):
    """Loop-side reader: completes pending calls by correlation id."""

    def __init__(self, connection: "AsyncMuxConnection"):
        self._connection = connection
        self._decoder = FrameDecoder()

    def data_received(self, data) -> None:
        try:
            frames = self._decoder.feed(data)
        except FrameTooLargeError as exc:
            self._connection._on_protocol_error(exc)
            return
        self._connection._complete_frames(frames)

    def connection_lost(self, exc) -> None:
        self._connection._on_connection_lost(exc)


class AsyncMuxConnection(Connection):
    """Client connection: loop-side receive, caller-side coalesced send.

    ``call`` appends ``(correlation id, frame, future)`` to a submission
    deque and then — once the socket exists — the **submitting thread
    itself** drains the deque under a writer lock and sends every queued
    frame as one coalesced ``send`` (the leader-writer fast path: no loop
    hop, no self-pipe syscall on the hot path, and concurrent callers fold
    into the leader's batch).  The event loop owns only the receive side,
    connect/reconnect, and failure sweeps.  Reconnection is lazy and
    re-resolves the address through the network name table, so a
    crashed-and-recovered server (new port) is picked up transparently —
    same contract as the threaded :class:`~repro.net.tcp._TcpMuxConnection`.
    """

    def __init__(self, network, address: str, runtime: AsyncEngineRuntime):
        self._network = network
        self._address = address
        self._runtime = runtime
        self._loop = runtime.loop
        self._ids = itertools.count(1)
        self._closed = False
        # Submission queue: callers append here (GIL-atomic); whoever holds
        # the writer lock drains it.  Before the socket exists, entries wait
        # for the loop-side connect to flush them.
        self._submissions: collections.deque = collections.deque()
        self._wake_pending = False
        self._write_lock = threading.Lock()
        self._sock = None  # raw non-blocking socket; set by the loop on connect
        # Outbound batching counters, updated under the writer lock.
        self._frames_out = 0
        self._flushes = 0
        self._bytes_out = 0
        runtime.register_stats_source(self)
        # Loop-affine state below (touched only from loop callbacks).
        self._pending: dict[int, concurrent.futures.Future] = {}
        self._transport = None
        self._connecting = False

    # -- Connection interface ----------------------------------------------

    def _submit(self, data: bytes) -> tuple[int, concurrent.futures.Future]:
        """Queue one frame for the leader-writer drain; no reply wait.

        Shared by :meth:`call` and :meth:`call_async` — a scatter loop that
        submits N frames back-to-back lands them in one deque drain, so the
        whole fan-out leaves in a single coalesced ``send`` syscall.
        """
        if self._closed:
            raise CommunicationError("connection is closed")
        check_frame_size(len(data))
        if not isinstance(data, (bytes, bytearray)):
            data = bytes(data)
        future: concurrent.futures.Future = concurrent.futures.Future()
        request_id = next(self._ids)
        self._submissions.append((request_id, data, future))
        if self._sock is not None:
            self._write_now()
        else:
            # Not connected yet (or lost): one loop wakeup per burst kicks
            # the (re)connect, which flushes the queue once the socket is up.
            # A True flag always means a kick is scheduled but not yet
            # started (the kick resets it first), so every entry is reached.
            if not self._wake_pending:
                self._wake_pending = True
                if not self._runtime.call_soon(self._kick_connect):
                    self._submissions.clear()
                    raise CommunicationError("connection is closed")
        return request_id, future

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        request_id, future = self._submit(data)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            # Abandon only this correlation id; the stream stays framed and
            # the late reply is discarded on arrival.
            self._runtime.call_soon(self._abandon, request_id)
            raise TimeoutError_(f"call to {self._address} timed out") from None
        except concurrent.futures.CancelledError:
            raise CommunicationError("connection is closed") from None

    def call_async(self, data: bytes, timeout: float | None = None) -> ReplyFuture:
        """Non-blocking submit; never raises (failures settle the future).

        Abandoning hops to the loop thread (where ``_pending`` is affine)
        exactly as a timed-out synchronous call does.
        """
        try:
            request_id, future = self._submit(data)
        except CommunicationError as exc:  # includes FrameTooLargeError
            return ReplyFuture.failed(exc)
        return ReplyFuture(
            future,
            abandon=lambda: self._runtime.call_soon(self._abandon, request_id),
        )

    def close(self) -> None:
        self._closed = True
        self._runtime.call_soon(self._close_on_loop)

    def batch_stats(self) -> dict:
        """This connection's outbound batching counters (lock-free snapshot)."""
        return {
            "frames_out": self._frames_out,
            "flushes": self._flushes,
            "bytes_out": self._bytes_out,
        }

    # -- caller-side write path --------------------------------------------

    def _write_now(self) -> None:
        # Re-check after every release: an appender that lost the lock race
        # relies on the holder (or us, here) observing its entry.
        lock = self._write_lock
        while self._submissions:
            if not lock.acquire(blocking=False):
                return
            try:
                self._write_locked()
            finally:
                lock.release()

    def _write_locked(self) -> None:
        submissions = self._submissions
        drained: list[tuple[int, bytes, concurrent.futures.Future]] = []
        while True:
            try:
                drained.append(submissions.popleft())
            except IndexError:
                break
        if not drained:
            return
        sock = self._sock
        if sock is None or self._closed:
            # Lost (or closed) between the caller's check and here: fail
            # fast, exactly as if the frames were in flight at the loss.
            error = CommunicationError(
                "connection is closed"
                if self._closed
                else f"call to {self._address} failed: connection lost"
            )
            for _, _, future in drained:
                _fail(future, error)
            return
        parts: list[bytes] = []
        for request_id, data, future in drained:
            # Register before sending: the reply cannot arrive first.
            self._pending[request_id] = future
            parts.append(FRAME_HEADER.pack(len(data), request_id))
            parts.append(data)
        payload = parts[0] if len(parts) == 1 else b"".join(parts)
        try:
            _sendall_nonblocking(sock, payload)
        except OSError:
            # Socket died mid-send; the transport's connection_lost fails
            # every registered future (ours included).  Nothing more to do.
            return
        self._frames_out += len(drained)
        self._flushes += 1
        self._bytes_out += len(payload)

    # -- loop-affine internals ---------------------------------------------

    def _kick_connect(self) -> None:
        self._wake_pending = False
        if self._closed:
            self._fail_queued(CommunicationError("connection is closed"))
            return
        if self._sock is not None:
            # Connect raced us to completion; flush from the loop.
            self._write_now()
            return
        if self._submissions and not self._connecting:
            self._connecting = True
            self._loop.create_task(self._connect())

    async def _connect(self) -> None:
        try:
            port = self._network._resolve(self._address)
            if port is None:
                raise ServerFailedError(f"no listener at {self._address}")
            transport, _ = await self._loop.create_connection(
                lambda: _MuxClientProtocol(self), "127.0.0.1", port
            )
        except BaseException as exc:  # noqa: BLE001 - every caller must hear
            self._connecting = False
            if isinstance(exc, CommunicationError):
                error: CommunicationError = exc
            else:
                error = CommunicationError(f"call to {self._address} failed: {exc}")
            self._fail_queued(error)
            return
        self._connecting = False
        if self._closed:
            transport.close()
            self._fail_queued(CommunicationError("connection is closed"))
            return
        self._transport = transport
        # Publish the raw socket last: once callers see it they write
        # directly, bypassing the loop.  asyncio hands out a TransportSocket
        # proxy that forbids I/O methods, so unwrap the real socket.  The
        # kernel buffer is empty here, so flushing the queued burst from the
        # loop cannot stall it.
        sock = transport.get_extra_info("socket")
        self._sock = getattr(sock, "_sock", sock)
        self._write_now()

    def _fail_queued(self, error: BaseException) -> None:
        submissions = self._submissions
        while True:
            try:
                _, _, future = submissions.popleft()
            except IndexError:
                return
            _fail(future, error)

    def _complete_frames(self, frames: list[tuple[int, bytes]]) -> None:
        pending = self._pending
        for request_id, payload in frames:
            future = pending.pop(request_id, None)
            if future is not None:
                _complete(future, payload)

    def _abandon(self, request_id: int) -> None:
        self._pending.pop(request_id, None)

    def _on_protocol_error(self, error: BaseException) -> None:
        logger.warning("%s: %s; dropping connection", self._address, error)
        if self._transport is not None:
            self._transport.abort()

    def _on_connection_lost(self, exc) -> None:
        self._sock = None  # callers fall back to the connect path
        self._transport = None
        error = CommunicationError(
            f"call to {self._address} failed: "
            + (str(exc) if exc else "peer closed the connection")
        )
        # A caller can hold the writer lock mid-send right now; taking the
        # lock orders this sweep after it, so its registered futures are in
        # ``_pending`` (callers register before sending) and none is missed.
        with self._write_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            _fail(future, error)
        self._fail_queued(error)

    def _close_on_loop(self) -> None:
        self._sock = None
        if self._transport is not None:
            self._transport.close()
        error = CommunicationError("connection is closed")
        with self._write_lock:
            pending, self._pending = self._pending, {}
        for future in pending.values():
            _fail(future, error)
        self._fail_queued(error)


def _sendall_nonblocking(sock, data) -> None:
    """``sendall`` for a non-blocking socket, from a non-loop thread.

    The asyncio transport put the socket in non-blocking mode; a full
    kernel buffer raises ``BlockingIOError`` instead of blocking, so wait
    for writability and resume.  Raises ``OSError`` when the socket dies.
    """
    view = memoryview(data)
    while view.nbytes:
        try:
            sent = sock.send(view)
        except BlockingIOError:
            select.select([], [sock], [], 0.1)
            continue
        view = view[sent:]


def _complete(future: concurrent.futures.Future, value) -> None:
    if not future.done():
        future.set_result(value)


def _fail(future: concurrent.futures.Future, error: BaseException) -> None:
    if not future.done():
        future.set_exception(error)


# -- server side ---------------------------------------------------------------


class _MuxServerProtocol(asyncio.Protocol):
    """One accepted connection: loop-side demux, executor-side servants."""

    def __init__(self, listener: "AsyncTcpListener"):
        self._listener = listener
        self._runtime = listener._runtime
        self._loop = listener._loop
        self._decoder = FrameDecoder()
        self._transport = None
        self._batcher: FrameBatcher | None = None
        self._alive = False
        # Executor workers park finished replies here; one threadsafe wake
        # drains the whole burst on the loop (same coalescing trick as the
        # client's submission queue — deque appends are GIL-atomic).
        self._replies: collections.deque = collections.deque()
        self._reply_wake = False

    def connection_made(self, transport) -> None:
        listener = self._listener
        with listener._lock:
            # A connection can sit in the kernel backlog across a crash;
            # accepting it after suspend() must not resurrect the host.
            if listener._suspended:
                accepted = False
            else:
                listener._protocols.add(self)
                accepted = True
        if not accepted:
            transport.abort()
            return
        self._transport = transport
        self._batcher = FrameBatcher(self._loop, transport, self._runtime)
        self._alive = True

    def connection_lost(self, exc) -> None:
        self._alive = False
        if self._batcher is not None:
            self._batcher.close()
        with self._listener._lock:
            self._listener._protocols.discard(self)

    def abort(self) -> None:
        """Reset the connection (loop thread)."""
        self._alive = False
        if self._transport is not None:
            self._transport.abort()

    def data_received(self, data) -> None:
        if not self._alive:
            return
        try:
            frames = self._decoder.feed(data)
        except FrameTooLargeError as exc:
            logger.warning(
                "%s: %s; resetting connection", self._listener.address, exc
            )
            self.abort()
            return
        if not frames:
            return
        listener = self._listener
        if listener._suspended:
            # Crashed between reading the request and serving it: a dead
            # host must not execute work.
            self.abort()
            return
        if listener._inline_ok:
            for request_id, request in frames:
                if not self._serve_inline(request_id, request):
                    return
        else:
            for request_id, request in frames:
                self._runtime.executor.submit(self._serve_offloaded, request_id, request)

    def _serve_inline(self, request_id: int, request: bytes) -> bool:
        started = time.perf_counter()
        try:
            reply = self._listener._handler(request)
        except BaseException:  # noqa: BLE001 - keep the loop honest
            logger.exception(
                "%s: handler raised; resetting connection", self._listener.address
            )
            self.abort()
            return False
        self._listener._record_inline(time.perf_counter() - started)
        return self._send_reply(request_id, reply)

    def _serve_offloaded(self, request_id: int, request: bytes) -> None:
        # Executor thread: re-check the crash flag (a request read before
        # suspend() must not execute), run the servant, hop back to the loop.
        listener = self._listener
        if listener._suspended or not self._alive:
            self._runtime.call_soon(self.abort)
            return
        started = time.perf_counter()
        try:
            reply = listener._handler(request)
        except BaseException:  # noqa: BLE001 - keep the worker honest
            logger.exception(
                "%s: handler raised; resetting connection", listener.address
            )
            self._runtime.call_soon(self.abort)
            return
        listener._record_offloaded(time.perf_counter() - started)
        self._replies.append((request_id, reply))
        if not self._reply_wake:
            # Flag-then-schedule: a True flag always means a drain is
            # scheduled but not yet started, so concurrent workers fold
            # into one self-pipe write instead of one per reply.
            self._reply_wake = True
            self._runtime.call_soon(self._drain_replies)

    def _drain_replies(self) -> None:
        # Loop thread.  Reset the flag *before* draining so a worker that
        # appends after the drain started schedules a fresh wake.
        self._reply_wake = False
        replies = self._replies
        while replies:
            try:
                request_id, reply = replies.popleft()
            except IndexError:
                break
            if not self._send_reply(request_id, reply):
                replies.clear()
                return

    def _send_reply(self, request_id: int, reply) -> bool:
        if not self._alive:
            return False
        if self._listener._suspended:
            self.abort()
            return False
        try:
            self._batcher.send(request_id, reply)
        except FrameTooLargeError as exc:
            logger.warning(
                "%s: reply %s; resetting connection", self._listener.address, exc
            )
            self.abort()
            return False
        return True


class AsyncTcpListener(Listener):
    """Event-loop sibling of the threaded ``_TcpListener``.

    Dispatch policy per handler: start every request on the bounded
    executor; after :data:`_PROMOTE_AFTER` consecutive sub-``_SLOW_HANDLER``
    servant executions, promote to inline-on-the-loop (no handoff); demote
    permanently the first time an execution runs slow.  Handlers marked
    with :func:`~repro.net.transport.blocking_handler` are never promoted —
    a servant that blocks on the loop would stall every connection of the
    network (and deadlock if its completion needs the loop).
    """

    def __init__(self, network, host_name: str, service: str, handler: FrameHandler):
        self._network = network
        self._host_name = host_name
        self._service = service
        self._handler = handler
        self._runtime: AsyncEngineRuntime = network._engine_runtime(host_name)
        self._loop = self._runtime.loop
        self._lock = threading.Lock()
        self._closed = False
        self._suspended = False
        self._server: asyncio.AbstractServer | None = None
        self._protocols: set[_MuxServerProtocol] = set()
        # Promotion state: benign races (flags only ever tighten).
        self._never_inline = bool(
            getattr(handler, "cqos_blocking", False)
        ) or not _inline_enabled()
        self._inline_ok = False
        self._fast_streak = 0
        self._open()

    @property
    def address(self) -> str:
        return f"{self._host_name}/{self._service}"

    def _open(self) -> None:
        self._runtime.submit(self._open_on_loop()).result(10.0)

    async def _open_on_loop(self) -> None:
        server = await self._loop.create_server(
            lambda: _MuxServerProtocol(self), "127.0.0.1", 0, backlog=64
        )
        port = server.sockets[0].getsockname()[1]
        with self._lock:
            # Publishing under the listener lock keeps the name table in
            # step with the server socket, mirroring the threaded engine: a
            # concurrent suspend cannot leave the table pointing at a dead
            # port, and a concurrent resume that already re-opened wins.
            if self._closed or self._server is not None:
                server.close()
                return
            self._server = server
            self._suspended = False
            self._network._publish(self.address, port)

    # -- dispatch-policy bookkeeping ---------------------------------------

    def _record_offloaded(self, duration: float) -> None:
        if self._never_inline:
            return
        if duration >= _SLOW_HANDLER:
            self._never_inline = True
            self._inline_ok = False
            return
        self._fast_streak += 1
        if self._fast_streak >= _PROMOTE_AFTER:
            self._inline_ok = True

    def _record_inline(self, duration: float) -> None:
        if duration >= _SLOW_HANDLER:
            self._never_inline = True
            self._inline_ok = False
            self._fast_streak = 0

    # -- crash / recovery --------------------------------------------------

    def suspend(self) -> None:
        """Crash injection: unpublish and reset every live connection."""
        with self._lock:
            self._suspended = True
            server, self._server = self._server, None
            protocols = list(self._protocols)
            self._protocols.clear()
            # Unpublish under the same lock as dropping the server socket,
            # mirroring _open_on_loop's publish.
            self._network._unpublish(self.address)

        def teardown() -> None:
            if server is not None:
                server.close()
            for protocol in protocols:
                protocol.abort()

        self._runtime.call_soon(teardown)

    def resume(self) -> None:
        """Recovery: re-open on a fresh port under the same address."""
        with self._lock:
            already_open = self._server is not None
        if not already_open and not self._closed:
            self._open()

    def close(self) -> None:
        self._closed = True
        self.suspend()
        self._network._drop_listener(self)


def _make_async_network():
    """Deferred import so ``repro.net.aio`` has no import-time tcp dependency."""
    from repro.net.tcp import TcpNetwork

    return TcpNetwork(engine="async")


class AsyncTcpNetwork:
    """Convenience factory: ``AsyncTcpNetwork()`` ≡ ``TcpNetwork(engine="async")``.

    Implemented as a factory (``__new__`` returns the configured
    :class:`~repro.net.tcp.TcpNetwork`) so both spellings produce the same
    runtime type and the name table, chaos wrapper, and pool interplay are
    literally shared code.
    """

    def __new__(cls):
        return _make_async_network()
