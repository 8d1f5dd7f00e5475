"""Real TCP loopback transport with multiplexed, correlation-id framing.

Gives integration tests an actual kernel network path: every listener is a
real socket on 127.0.0.1 with an ephemeral port.  A process-local name table
maps ``"host/service"`` addresses to ports so the two transports stay
interchangeable.

Wire format (:mod:`repro.net.framing`): every frame carries a ``>IQ``
header (payload length, 64-bit correlation id), so one connection carries
many concurrent calls.  Each socket is read through its own
:class:`FrameReader`: one ``recv`` per frame, none for a frame already
buffered.  The client side is a leader/follower demultiplexer: a caller
that finds nobody reading reads the socket and completes other callers'
slots by correlation id, so a lone caller reads its own reply on its own
thread, while concurrent callers pipeline, each parked on its own slot and
woken once.  The server side reads frames on one thread per connection and
runs a request inline when its reader holds nothing behind it, or on a
per-connection lane of at most ``_SERVER_WORKERS`` when it does.  Every
thread here (accept, serve, lane, demultiplexer) is borrowed from the
network's one set.

Crash injection closes the host's server sockets and refuses new accepts
until :meth:`TcpNetwork.recover`, when the same listeners re-open on the
same logical addresses (new ports, re-resolved through the name table).
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time
import weakref

import concurrent.futures

from repro.net import framing
from repro.net.framing import FRAME_HEADER, check_frame_size
from repro.net.transport import (
    Connection,
    FrameHandler,
    Host,
    Listener,
    Network,
    ReplyFuture,
    split_address,
)
from repro.util.concurrency import PriorityExecutor
from repro.util.errors import (
    CommunicationError,
    FrameTooLargeError,
    ServerFailedError,
    TimeoutError_,
)
from repro.util.log import get_logger

logger = get_logger("net.tcp")

#: How many pipelined requests of one connection may execute at once.
_SERVER_WORKERS = max(4, min(16, 2 * (os.cpu_count() or 1)))


#: What one ``recv`` asks for when nothing is buffered: a small frame, or a
#: burst of them, in one system call.
_RECV_SIZE = 64 * 1024
_HEADER_SIZE = FRAME_HEADER.size
_unpack_header = FRAME_HEADER.unpack_from


class FrameReader:
    """Reads the frames of one socket through what it has received.

    The buffer is the last chunk ``recv`` returned, from offset ``pos`` to
    its length ``end``: a frame costs one ``recv`` when nothing is buffered
    and none when it is, and each frame of a burst is one payload slice.
    Only a frame the chunk cuts short is read on, to its last byte and no
    further; an over-limit header is refused before its payload is read.
    """

    __slots__ = ("sock", "chunk", "pos", "end")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.chunk = b""
        self.pos = self.end = 0

    def read(self) -> tuple[int, bytes]:
        """Read one frame; returns ``(request_id, payload)``."""
        chunk, pos, end = self.chunk, self.pos, self.end
        if pos == end:
            chunk = self.sock.recv(_RECV_SIZE)
            pos, end = 0, len(chunk)
        start = pos + _HEADER_SIZE
        if start > end:  # the header is cut short, or the peer closed
            chunk = self._rest(chunk[pos:end], start - end)
            pos, end, start = 0, _HEADER_SIZE, _HEADER_SIZE
        length, request_id = _unpack_header(chunk, pos)
        if length > framing.MAX_FRAME:
            check_frame_size(length)
        stop = start + length
        if stop > end:  # the payload is cut short
            self.pos = self.end = 0
            return request_id, self._rest(chunk[start:end], stop - end)
        self.chunk, self.pos, self.end = chunk, stop, end
        return request_id, chunk[start:stop]

    def _rest(self, head: bytes, missing: int) -> bytes:
        """``head`` and the next ``missing`` bytes of the stream."""
        parts = [head]
        while missing:
            more = self.sock.recv(missing)
            if not more:
                raise CommunicationError("peer closed the connection")
            parts.append(more)
            missing -= len(more)
        return b"".join(parts)


def write_frame_mux(sock: socket.socket, request_id: int, data) -> None:
    """Write one frame (length + correlation id header, then payload).

    ``data`` may be any bytes-like object (``bytes``, ``bytearray``,
    ``memoryview``) — the zero-copy encoder paths hand buffers straight in.
    The caller is responsible for serializing writes on the socket.
    Refuses frames over the limit *before* any byte hits the wire, so an
    oversized payload fails fast on the sending side instead of being
    rejected (and reset) by the receiver mid-stream.
    """
    size = len(data)
    if size > framing.MAX_FRAME:
        check_frame_size(size)
    header = FRAME_HEADER.pack(size, request_id)
    if size <= 0xFFFF and type(data) is bytes:
        sock.sendall(header + data)
    else:
        sock.sendall(header)
        sock.sendall(data)


def _shut(sock: socket.socket) -> None:
    """Close ``sock``, shutting it down first: close() alone leaves a thread
    blocked in ``recv`` or ``accept`` on it."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # not connected
    try:
        sock.close()
    except OSError:
        pass


def _reset_connection(sock: socket.socket) -> None:
    """Close ``sock`` with an immediate RST so a blocked peer fails fast."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class _TcpListener(Listener):
    def __init__(self, network: "TcpNetwork", host_name: str, service: str, handler: FrameHandler):
        self._network = network
        self._host_name = host_name
        self._service = service
        self._handler = handler
        self._closed = False
        self._lock = threading.Lock()
        self._server_sock: socket.socket | None = None
        self._suspended = False
        self._accepted: set[socket.socket] = set()
        self._open()

    @property
    def address(self) -> str:
        return f"{self._host_name}/{self._service}"

    def _open(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sock.listen(64)
        port = sock.getsockname()[1]
        with self._lock:
            # Publishing under the listener lock keeps the name table in
            # step with the socket: a concurrent suspend() cannot slip its
            # close+unpublish between our bind and publish and leave the
            # table pointing at a dead port.  A concurrent resume that
            # already re-opened wins; this socket is surplus.
            if self._closed or self._server_sock is not None:
                sock.close()
                return
            self._server_sock = sock
            self._suspended = False
            self._network._publish(self.address, port)
        self._network.threads.spawn(lambda: self._accept_loop(sock))

    def _accept_loop(self, server_sock: socket.socket) -> None:
        while True:
            try:
                conn, _ = server_sock.accept()
            except OSError:
                return  # socket closed
            with self._lock:
                # A connection can sit in the kernel backlog across a crash;
                # accepting it after suspend() must not resurrect the host.
                stale = self._suspended
                if not stale:
                    self._accepted.add(conn)
            if stale:
                _reset_connection(conn)
                continue
            self._network.threads.spawn(lambda conn=conn: self._serve_mux(conn))

    # -- serving: correlation-id multiplexing ------------------------------

    def _serve_mux(self, conn: socket.socket) -> None:
        lane = PriorityExecutor(
            _SERVER_WORKERS, f"tcp-mux-{self.address}", self._network.threads
        )
        write_lock = threading.Lock()
        try:
            with conn:
                try:
                    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    return  # crash injection closed the socket before we ran
                reader = FrameReader(conn)
                while True:
                    try:
                        request_id, request = reader.read()
                    except FrameTooLargeError as exc:
                        logger.warning("%s: %s; resetting connection", self.address, exc)
                        _reset_connection(conn)
                        return
                    except (CommunicationError, OSError):
                        return
                    # No lock: suspend() sets the flag in one store.
                    if self._suspended:
                        _reset_connection(conn)
                        return
                    # Dispatch by what the reader holds: bytes already
                    # buffered behind this request mean the client
                    # pipelines, so the request goes to the lane and the
                    # reader keeps draining; an empty buffer means the
                    # client waits for this reply, so it runs inline.
                    if reader.pos < reader.end:
                        lane.submit(self._serve_one, conn, write_lock, request_id, request)
                    elif not self._serve_one(conn, write_lock, request_id, request):
                        return
        finally:
            lane.shutdown(wait=False)
            with self._lock:
                self._accepted.discard(conn)

    def _serve_one(
        self, conn: socket.socket, write_lock: threading.Lock, request_id: int, request: bytes
    ) -> bool:
        """Execute one request and write its correlated reply.

        Returns False when the connection was reset and serving must stop.
        """
        try:
            reply = self._handler(request)
        except BaseException:  # noqa: BLE001 - keep serving thread honest
            logger.exception("%s: handler raised; resetting connection", self.address)
            _reset_connection(conn)
            return False
        try:
            with write_lock:
                write_frame_mux(conn, request_id, reply)
        except FrameTooLargeError as exc:
            logger.warning("%s: reply %s; resetting connection", self.address, exc)
            _reset_connection(conn)
            return False
        except OSError:
            return False
        return True

    # -- crash / recovery --------------------------------------------------

    def suspend(self) -> None:
        """Crash injection: close the server socket and every live connection."""
        with self._lock:
            self._suspended = True
            if self._server_sock is not None:
                _shut(self._server_sock)
                self._server_sock = None
            accepted = list(self._accepted)
            self._accepted.clear()
            # Unpublish under the same lock as the socket close, mirroring
            # _open's publish, so crash/recover churn can never interleave
            # into a table entry for a closed socket.
            self._network._unpublish(self.address)
        for conn in accepted:
            _shut(conn)

    def resume(self) -> None:
        """Recovery: re-open on a fresh port under the same address."""
        with self._lock:
            already_open = self._server_sock is not None
        if not already_open and not self._closed:
            self._open()

    def close(self) -> None:
        self._closed = True
        self.suspend()
        self._network._drop_listener(self)


class _PendingReply:
    """One in-flight request awaiting its correlated reply.

    ``future`` is set only for :meth:`Connection.call_async` submissions:
    settling the slot then also settles the caller's future (the slot stays
    the single source of truth so sync and async waiters share every
    completion path — leader reads, demux reads, resets).  ``waiter`` is
    made only for a sync caller that parks once its frame is written: a C
    lock, held from the moment it is made, that exactly one release opens —
    :meth:`settle`'s, or a leader's handing this caller the readership
    (``lead``).  ``timed`` says whether that caller has a deadline.
    """

    __slots__ = ("value", "error", "done", "future", "waiter", "lead", "timed")

    def __init__(self, future: concurrent.futures.Future | None = None) -> None:
        self.value: bytes | None = None
        self.error: BaseException | None = None
        self.done = False
        self.future = future
        self.waiter: threading.Lock | None = None
        self.lead = self.timed = False

    def settle(self, value: bytes | None, error: BaseException | None) -> None:
        """Complete the slot (and its future, if any) and wake its parked
        caller, unless a handoff already did.  Idempotent."""
        if self.done:
            return
        self.value = value
        self.error = error
        self.done = True
        if self.future is not None:
            if error is not None:
                self.future.set_exception(error)
            else:
                self.future.set_result(value)
        elif self.waiter is not None and not self.lead:
            self.waiter.release()

    def park(self, timeout: float = -1) -> bool:
        """Block until the slot settles or the readership is handed over;
        False if ``timeout`` ran out first."""
        return self.waiter.acquire(True, timeout)


class _TcpMuxConnection(Connection):
    """Client connection: many concurrent in-flight calls, one socket.

    Concurrency model (leader/follower, one wake per reply):

    - one plain lock guards the connection's state; a *writer lock* is held
      only around ``sendall``, so requests from many threads interleave
      frame-atomically on the wire;
    - nobody reads while still to write, since another caller's frame may
      need a reader before the server takes it: a caller with nothing else
      in flight claims the readership with the writer lock as it registers
      (a lone caller's whole path); any other caller, once its frame is
      written, reads if nobody does, or else (a *follower*) parks on its
      own slot's waiter, which only its slot's settling or a handoff opens;
    - the reader (the *leader*) completes every arriving reply's slot by
      correlation id.  On its own reply it hands the readership to exactly
      one reader and returns the payload: to the demultiplexer while an
      async call is pending, else to the oldest parked follower, untimed
      ones first; with nobody parked, the next caller to finish writing
      takes it.

    A follower's timeout discards its pending slot and leaves the stream
    intact (its late reply is dropped on arrival), and so does a leader's
    deadline that expires between frames: it hands the readership on.  A
    leader that times out inside a read resets the connection, because the
    read may have stopped mid-frame.  A reset and :meth:`close` shut the
    socket down before closing it, so a reader blocked in ``recv`` wakes at
    once.  Crash injection surfaces as a read error that fails every pending
    call, and the next call transparently re-resolves through the name
    table.
    """

    def __init__(self, network: "TcpNetwork", address: str):
        self._network = network
        self._address = address
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._sock: socket.socket | None = None
        # ``_sock``'s reader, made, dropped and captured with it under the lock.
        self._reader: FrameReader | None = None
        # The socket whose timeout is known to be None: a reader that wants
        # none calls settimeout only after a deadline read changed it.
        self._untimed: socket.socket | None = None
        # Insertion-ordered, so the first parked slot is the oldest follower.
        self._pending: dict[int, _PendingReply] = {}
        self._last_id = 0
        self._reader_active = False
        self._closed = False
        # Background demultiplexer: started by the first call_async, so
        # purely-synchronous workloads keep the zero-thread leader/follower
        # path.  It parks on its own waiter (held, like a slot's) while
        # ``_demux_parked``; only a handoff or close() releases it.
        self._demux_waiter: threading.Lock | None = None
        self._demux_parked = False

    # -- socket management (called with self._lock held) -------------------

    def _connect(self) -> socket.socket:
        port = self._network._resolve(self._address)
        if port is None:
            raise ServerFailedError(f"no listener at {self._address}")
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=5.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
        except OSError as exc:
            raise CommunicationError(f"call to {self._address} failed: {exc}") from exc
        self._sock = self._untimed = sock
        self._reader = FrameReader(sock)
        return sock

    def _reset_locked(self, sock: socket.socket | None, reason: str) -> None:
        """Fail every pending call with the ``reason`` the call to this
        address ended for, and drop ``sock`` (lock held).

        A no-op once ``sock`` is no longer the connection's socket: the
        reset that replaced it already failed every call pending on it.
        """
        if self._sock is not sock:
            return
        if sock is not None:
            _shut(sock)
            self._sock = self._reader = None
        error = CommunicationError(f"call to {self._address} {reason}")
        for slot in self._pending.values():
            slot.settle(None, error)
        self._pending.clear()
        self._reader_active = False

    def _hand_off_locked(self) -> None:
        """Pass the readership on (lock held): to the demultiplexer while an
        async call is pending, else to the oldest parked follower, untimed
        first: a deadline that runs out inside a read resets the connection."""
        self._reader_active = False
        heir = None
        for slot in self._pending.values():
            if slot.future is not None:
                self._wake_demux_locked()
                return
            if slot.waiter is not None and (heir is None or heir.timed and not slot.timed):
                heir = slot
        if heir is not None:
            self._reader_active = heir.lead = True
            heir.waiter.release()

    def _wake_demux_locked(self) -> None:
        if self._demux_parked:
            self._demux_parked = False
            self._demux_waiter.release()

    # -- Connection interface ----------------------------------------------

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        if len(data) > framing.MAX_FRAME:
            check_frame_size(len(data))
        slot = _PendingReply()
        with self._lock:
            if self._closed:
                raise CommunicationError("connection is closed")
            sock = self._sock
            if sock is None:
                sock = self._connect()
            reader = self._reader
            lead = not (self._pending or self._reader_active) and self._write_lock.acquire(False)
            if lead:
                self._reader_active = True
            self._last_id = request_id = self._last_id + 1
            self._pending[request_id] = slot
        try:
            if not lead:
                self._write_lock.acquire()
            try:
                write_frame_mux(sock, request_id, data)
            finally:
                self._write_lock.release()
        except OSError as exc:
            with self._lock:
                self._reset_locked(sock, f"failed: {exc}")
            if isinstance(exc, socket.timeout):
                raise TimeoutError_(f"call to {self._address} timed out") from exc
            raise slot.error from exc
        deadline = None if timeout is None else time.monotonic() + timeout
        if lead:
            return self._lead_reads(reader, request_id, slot, deadline)
        return self._follow(reader, request_id, slot, deadline)

    def _follow(
        self, reader: FrameReader, request_id: int, slot: _PendingReply, deadline: float | None
    ) -> bytes:
        """With our frame written, read if nobody does; else park until our
        slot settles or the readership is handed to us."""
        with self._lock:
            if not (slot.done or self._reader_active):
                self._reader_active = True  # nobody reads: we lead
            elif not slot.done:
                slot.waiter = threading.Lock()
                slot.waiter.acquire()
                slot.timed = deadline is not None
        if slot.waiter is not None:
            if deadline is None:
                slot.park()
            elif not slot.park(max(deadline - time.monotonic(), 0.0)):
                with self._lock:
                    if not slot.done and not slot.lead:  # a follower's timeout
                        self._pending.pop(request_id, None)
                        raise TimeoutError_(f"call to {self._address} timed out")
        if slot.done:
            if slot.error is not None:
                raise slot.error
            return slot.value  # type: ignore[return-value]
        return self._lead_reads(reader, request_id, slot, deadline)

    def _lead_reads(
        self, reader: FrameReader, request_id: int, slot: _PendingReply, deadline: float | None
    ) -> bytes:
        """Read frames as the leader until our reply arrives; return it.

        Raises our slot's error once a read error here, or a reset or
        ``close()`` elsewhere, failed it.
        """
        sock = reader.sock
        while True:
            try:
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break  # between frames: hand the readership on
                    self._untimed = None
                    sock.settimeout(remaining)
                elif self._untimed is not sock:
                    sock.settimeout(None)
                    self._untimed = sock
                reply_id, payload = reader.read()
            except socket.timeout as exc:
                # Leader timeout: the read may have stopped mid-frame, so
                # the stream can no longer be trusted — reset everything.
                with self._lock:
                    slot.settle(None, TimeoutError_(f"call to {self._address} timed out"))
                    self._reset_locked(sock, "timed out")
                raise slot.error from exc
            except (OSError, CommunicationError) as exc:
                with self._lock:
                    self._reset_locked(sock, f"failed: {exc}")
                raise slot.error from exc
            with self._lock:
                arrived = self._pending.pop(reply_id, None)
                if reply_id == request_id:
                    if arrived is None:
                        raise slot.error  # failed by a reset, which ended our readership
                    if self._pending:
                        self._hand_off_locked()
                    else:
                        self._reader_active = False
                    return payload
                if arrived is not None:
                    arrived.settle(payload, None)
        with self._lock:
            if not slot.done:
                self._pending.pop(request_id, None)
                self._hand_off_locked()
                slot.settle(None, TimeoutError_(f"call to {self._address} timed out"))
        raise slot.error

    # -- non-blocking submit (futures API) ---------------------------------

    def call_async(self, data: bytes, timeout: float | None = None) -> ReplyFuture:
        """Register a correlation id, write the frame, return immediately.

        Never raises: submit-time failures (oversized frame, dead endpoint,
        write error) settle the returned future, so a scatter loop records
        them as branch outcomes instead of aborting mid-fan-out.  Replies
        are completed by whichever reader is active — a synchronous caller
        leading reads, or the background demultiplexer, which this call
        starts or wakes when nobody reads.  ``timeout`` is enforced by the
        consumer (``result(timeout)``); an abandoned call's pending entry is
        reclaimed via :meth:`ReplyFuture.abandon`.
        """
        try:
            check_frame_size(len(data))
        except FrameTooLargeError as exc:
            return ReplyFuture.failed(exc)
        future: concurrent.futures.Future = concurrent.futures.Future()
        slot = _PendingReply(future)
        with self._lock:
            if self._closed:
                return ReplyFuture.failed(CommunicationError("connection is closed"))
            sock = self._sock
            if sock is None:
                try:
                    sock = self._connect()
                except CommunicationError as exc:
                    return ReplyFuture.failed(exc)
            self._last_id = request_id = self._last_id + 1
            self._pending[request_id] = slot
            if self._demux_waiter is None:
                self._demux_waiter = threading.Lock()
                self._demux_waiter.acquire()
                self._network.threads.spawn(self._demux_loop)
            elif not self._reader_active:
                self._wake_demux_locked()
        reply = ReplyFuture(future, abandon=lambda: self._abandon(request_id))
        try:
            with self._write_lock:
                write_frame_mux(sock, request_id, data)
        except OSError as exc:
            with self._lock:
                if isinstance(exc, socket.timeout):
                    slot.settle(None, TimeoutError_(f"call to {self._address} timed out"))
                self._reset_locked(sock, f"failed: {exc}")
        return reply

    def _abandon(self, request_id: int) -> None:
        """Reclaim one pending entry; a late reply is discarded on arrival."""
        with self._lock:
            self._pending.pop(request_id, None)

    def _demux_loop(self) -> None:
        """Take the readership whenever calls are pending and nobody reads.

        Otherwise park on the demultiplexer's own waiter until a sync leader
        steps down with an async call pending, a ``call_async`` finds
        nobody reading, or :meth:`close`.  No timed wait: a reset or
        ``close()`` wakes a blocked read by shutting the socket down.
        """
        waiter = self._demux_waiter
        while True:
            with self._lock:
                if self._closed:
                    return
                if self._reader_active or not self._pending:
                    self._demux_parked = True
                    reader = None
                else:
                    self._reader_active = True
                    reader = self._reader
            if reader is None:
                waiter.acquire()
            else:
                self._demux_reads(reader)

    def _demux_reads(self, reader: FrameReader) -> None:
        """Read frames with a blocking ``recv`` until nothing is pending."""
        sock = reader.sock
        while True:
            try:
                if self._untimed is not sock:
                    sock.settimeout(None)
                    self._untimed = sock
                reply_id, payload = reader.read()
            except (OSError, CommunicationError) as exc:
                with self._lock:
                    self._reset_locked(sock, f"failed: {exc}")
                return
            with self._lock:
                if self._sock is not sock:
                    return  # a reset ended the readership and failed the calls
                arrived = self._pending.pop(reply_id, None)
                if arrived is not None:
                    arrived.settle(payload, None)
                if not self._pending:
                    self._reader_active = False
                    return

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._reset_locked(self._sock, "failed: connection is closed")
            self._wake_demux_locked()


class _TcpHost(Host):
    def __init__(self, network: "TcpNetwork", name: str):
        super().__init__(name)
        self._network = network

    def listen(self, service: str, handler: FrameHandler) -> Listener:
        address = f"{self.name}/{service}"
        # Atomic claim closes the check-then-act race: two concurrent
        # listen() calls on one address cannot both pass a resolve() check.
        self._network._claim(address)
        try:
            listener = _TcpListener(self._network, self.name, service, handler)
        except BaseException:
            self._network._release(address)
            raise
        self._network._track_listener(self.name, listener)
        return listener

    def connect(self, address: str) -> Connection:
        split_address(address)
        connection = _TcpMuxConnection(self._network, address)
        self._network._track_connection(connection)
        return connection


class TcpNetwork(Network):
    """A set of logical hosts backed by loopback TCP sockets."""

    def __init__(self) -> None:
        # The name table is mutated from listener open/suspend paths that run
        # on accept/recovery threads and read from every client call: all
        # access goes through the locked helpers below.
        self._resolve_table: dict[str, int] = {}
        self._claimed: set[str] = set()
        self._hosts: dict[str, _TcpHost] = {}
        self._listeners: dict[str, list[Listener]] = {}
        # Every connection the hosts handed out, so close() reaches one that
        # re-opened its socket after a recovery and nobody closed.
        self._connections: weakref.WeakSet[_TcpMuxConnection] = weakref.WeakSet()
        self._lock = threading.Lock()

    # -- name table (lock-guarded) ----------------------------------------

    def _claim(self, address: str) -> None:
        """Reserve ``address`` for a new listener (atomic duplicate check).

        A claim outlives crash injection — a crashed listener still owns its
        address until closed — so racing or post-crash duplicate listens
        fail instead of colliding at recovery.
        """
        with self._lock:
            if address in self._claimed:
                raise CommunicationError(f"address already in use: {address}")
            self._claimed.add(address)

    def _release(self, address: str) -> None:
        with self._lock:
            self._claimed.discard(address)

    def _publish(self, address: str, port: int) -> None:
        with self._lock:
            self._resolve_table[address] = port

    def _unpublish(self, address: str) -> None:
        with self._lock:
            self._resolve_table.pop(address, None)

    def _resolve(self, address: str) -> int | None:
        with self._lock:
            return self._resolve_table.get(address)

    def host(self, name: str) -> Host:
        with self._lock:
            existing = self._hosts.get(name)
            if existing is None:
                existing = _TcpHost(self, name)
                self._hosts[name] = existing
            return existing

    def _track_listener(self, host_name: str, listener: Listener) -> None:
        with self._lock:
            self._listeners.setdefault(host_name, []).append(listener)

    def _track_connection(self, connection: _TcpMuxConnection) -> None:
        with self._lock:
            self._connections.add(connection)

    def _drop_listener(self, listener: Listener) -> None:
        with self._lock:
            for listeners in self._listeners.values():
                if listener in listeners:
                    listeners.remove(listener)
            self._claimed.discard(listener.address)

    def crash(self, host_name: str) -> None:
        with self._lock:
            listeners = list(self._listeners.get(host_name, []))
        for listener in listeners:
            listener.suspend()

    def recover(self, host_name: str) -> None:
        with self._lock:
            listeners = list(self._listeners.get(host_name, []))
        for listener in listeners:
            listener.resume()

    def close(self) -> None:
        with self._lock:
            all_listeners = [l for ls in self._listeners.values() for l in ls]
            self._listeners.clear()
            self._hosts.clear()
            self._claimed.clear()
            connections = list(self._connections)
        for listener in all_listeners:
            listener.close()
        for connection in connections:
            connection.close()
        self.threads.close()
