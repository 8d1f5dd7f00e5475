"""Multiplexed-connection concurrency tests (PR 2).

Covers the v2 correlation-id protocol under concurrent callers sharing one
connection, the shared :class:`~repro.net.pool.ConnectionPool` across crash
and recovery, and deterministic chaos-seeded runs over multiplexed TCP.
"""

import random
import select
import socket
import sys
import threading
import time

import pytest

from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.framing import FRAME_HEADER
from repro.net.memory import InMemoryNetwork
from repro.net.pool import ConnectionPool
from repro.net import tcp
from repro.net.tcp import FrameReader, TcpNetwork
from repro.util.errors import CommunicationError, TimeoutError_


def _poll(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return predicate()


def _hammer_one_connection(network, threads: int, calls: int) -> list:
    """N threads interleave calls over ONE shared connection; each call's
    reply must correlate to its own request (no cross-talk)."""
    network.host("server").listen("echo", lambda d: b"R:" + d)
    connection = network.host("client").connect("server/echo")
    mismatches: list = []
    barrier = threading.Barrier(threads)

    def worker(slot: int) -> None:
        barrier.wait()
        for i in range(calls):
            payload = f"{slot}:{i}".encode()
            try:
                reply = connection.call(payload, timeout=10.0)
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                mismatches.append((slot, i, repr(exc)))
                return
            if reply != b"R:" + payload:
                mismatches.append((slot, i, reply))

    workers = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    connection.close()
    return mismatches


def thread_stacks() -> list[list[str]]:
    """The function names on every thread's stack, innermost first."""
    stacks = []
    for frame in sys._current_frames().values():
        names = []
        while frame is not None:
            names.append(frame.f_code.co_name)
            frame = frame.f_back
        stacks.append(names)
    return stacks


def _accept_loop_spawning() -> bool:
    """Whether a listener's accept loop is still starting a serving thread
    (whose end, a ``Condition.wait``, runs in threading.py)."""
    return any("spawn" in s and "_accept_loop" in s for s in thread_stacks())


class TestMuxCorrelation:
    def test_tcp_threads_share_one_connection(self):
        net = TcpNetwork()
        try:
            assert _hammer_one_connection(net, threads=16, calls=50) == []
        finally:
            net.close()

    def test_memory_threads_share_one_connection(self):
        net = InMemoryNetwork()
        try:
            assert _hammer_one_connection(net, threads=16, calls=50) == []
        finally:
            net.close()

    def test_slow_handler_calls_overlap(self):
        """Two 100ms calls over one mux connection take ~one delay, not two."""
        import time

        net = TcpNetwork()
        try:
            net.host("server").listen("slow", lambda d: (time.sleep(0.1), d)[1])
            connection = net.host("client").connect("server/slow")
            # Prime the connection (establish the socket).
            connection.call(b"prime", timeout=10.0)
            barrier = threading.Barrier(4)

            def one_call() -> None:
                barrier.wait()
                connection.call(b"x", timeout=10.0)

            workers = [threading.Thread(target=one_call) for _ in range(4)]
            start = time.monotonic()
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            elapsed = time.monotonic() - start
            # Serialized execution would need >= 0.4s; overlapped far less.
            assert elapsed < 0.35, f"calls did not overlap: {elapsed:.3f}s"
            connection.close()
        finally:
            net.close()


class TestServerDispatch:
    """The listener dispatches each request by what is buffered behind it:
    bytes waiting ⇒ the connection's lane, an empty buffer ⇒ inline."""

    def test_buffered_requests_overlap_with_no_priming_call(self):
        """Four frames written at once reach a handler that needs all four
        running together; the very first frame already sees the other three
        buffered, so they overlap without any earlier call on the link."""
        barrier = threading.Barrier(4, timeout=2.0)

        def meet(data: bytes) -> bytes:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return b"broken"
            return b"ok"

        net = TcpNetwork()
        try:
            net.host("server").listen("meet", meet)
            port = net._resolve("server/meet")
            with socket.create_connection(("127.0.0.1", port), timeout=10.0) as raw:
                raw.sendall(
                    b"".join(FRAME_HEADER.pack(1, rid) + b"x" for rid in range(1, 5))
                )
                reader = FrameReader(raw)
                replies = dict(reader.read() for _ in range(4))
        finally:
            net.close()
        assert replies == {1: b"ok", 2: b"ok", 3: b"ok", 4: b"ok"}

    def test_serving_reads_no_clock(self):
        """A serial echo over TCP reads no clock on either side: the client
        passes no timeout and the listener's dispatch rule is a buffer
        check, so the profile of every thread sees no ``time.monotonic``."""
        seen = []

        def hook(frame, event, arg):
            if event == "c_call" and arg is time.monotonic:
                seen.append(frame.f_code.co_filename)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            assert connection.call(b"warm") == b"warm"
            sys.setprofile(hook)
            try:
                for i in range(50):
                    assert connection.call(b"%d" % i) == b"%d" % i
            finally:
                sys.setprofile(None)
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        assert seen == []

    def test_serving_makes_no_select_call(self):
        """The listener's dispatch rule reads the frame reader's buffer, so
        no thread makes a ``select`` call while a serial and a pipelined
        client are served."""
        seen = []

        def hook(frame, event, arg):
            if event == "c_call" and getattr(arg, "__module__", None) == "select":
                seen.append(arg.__name__)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            sys.setprofile(hook)
            try:
                for i in range(20):
                    assert connection.call(b"%d" % i) == b"%d" % i
                replies = [connection.call_async(b"%d" % i) for i in range(20)]
                assert [reply.result(5.0) for reply in replies] == [
                    b"%d" % i for i in range(20)
                ]
            finally:
                sys.setprofile(None)
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        assert seen == []

    def test_a_serial_echo_makes_one_recv_per_frame_on_each_side(self):
        """Each request and each reply of a serial echo is read with one
        ``recv``: the client's reader and the listener's each ask for up to
        64 KiB when nothing is buffered, header and payload together."""
        recording = threading.Event()
        returned = []  # the thread of each recv that returned while recording

        def hook(frame, event, arg):
            if event == "c_return" and recording.is_set() and getattr(arg, "__name__", None) == "recv":
                returned.append(threading.get_ident())

        threading.setprofile(hook)  # the serving thread starts under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            assert connection.call(b"warm") == b"warm"
            sys.setprofile(hook)
            recording.set()
            try:
                for i in range(50):
                    assert connection.call(b"%d" % i) == b"%d" % i
            finally:
                recording.clear()
                sys.setprofile(None)
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        client = threading.get_ident()
        assert returned.count(client) == 50
        assert len(set(returned) - {client}) == 1  # the serving thread
        assert len(returned) == 100


class TestClientConnection:
    """The leader/follower client connection: one plain lock for its state,
    a waiter per parked caller, readership handed to exactly one reader, and
    a leader that returns its own reply."""

    def test_a_sync_tcp_call_enters_no_threading_frame(self):
        """A lone synchronous caller takes the readership as it registers and
        never parks, so it makes no waiter and takes C locks only: neither
        side of a serial echo enters a Python frame of the threading
        module."""
        seen = []
        counting = threading.Event()  # thread starts and stops are not calls

        def hook(frame, event, arg):
            if event == "call" and frame.f_code.co_filename == threading.__file__:
                if counting.is_set():
                    seen.append(frame.f_code.co_name)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            assert connection.call(b"warm") == b"warm"
            # Count only once the accept loop has finished starting the
            # serving thread: the end of that start runs in threading.py.
            assert _poll(lambda: not _accept_loop_spawning())
            counting.set()
            sys.setprofile(hook)
            try:
                for i in range(50):
                    assert connection.call(b"%d" % i) == b"%d" % i
            finally:
                sys.setprofile(None)
                counting.clear()
            connection.close()
        finally:
            threading.setprofile(None)
            net.close()
        assert seen == []

    def test_async_reply_after_a_sync_leader_steps_down_settles_promptly(self):
        """A sync leader that steps down while only an async reply is still
        due hands the readership to the parked demultiplexer, which has no
        tick to wait for: the reply settles as soon as it lands."""
        entered = threading.Event()
        release = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"sync":
                entered.set()
                release.wait(5.0)
            return data

        net = TcpNetwork()
        try:
            net.host("server").listen("svc", handler)
            connection = net.host("client").connect("server/svc")
            # Start the demultiplexer; once this reply is in it steps down
            # and parks on its own waiter.
            assert connection.call_async(b"warm").result(5.0) == b"warm"
            assert _poll(lambda: not connection._reader_active)
            outcome = []
            leader = threading.Thread(
                target=lambda: outcome.append(connection.call(b"sync", timeout=5.0))
            )
            leader.start()
            assert entered.wait(5.0)
            assert _poll(lambda: connection._reader_active)
            # The server runs "sync" inline, so this request waits unread
            # behind it and its reply lands after the leader's.
            reply = connection.call_async(b"async")
            released = time.monotonic()
            release.set()
            leader.join(5.0)
            assert outcome == [b"sync"]
            assert reply.result(5.0) == b"async"
            assert time.monotonic() - released < 0.25
            connection.close()
        finally:
            release.set()
            net.close()

    def test_concurrent_callers_with_one_deadline_each_get_their_own_reply(self):
        """Eight threads share one connection to a handler that takes 0-200
        us (seeded); one passes a deadline, so the socket timeout changes
        hands between leaders.  Every reply matches its request and no
        pending slot is left behind."""
        rng = random.Random(33)

        def handler(data: bytes) -> bytes:
            time.sleep(rng.random() * 200e-6)
            return b"R:" + data

        net = TcpNetwork()
        try:
            net.host("server").listen("echo", handler)
            connection = net.host("client").connect("server/echo")
            mismatches: list = []
            barrier = threading.Barrier(8)

            def worker(slot: int) -> None:
                timeout = 30.0 if slot == 0 else None
                barrier.wait()
                for i in range(500):
                    payload = b"%d:%d" % (slot, i)
                    try:
                        reply = connection.call(payload, timeout=timeout)
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        mismatches.append((slot, i, repr(exc)))
                        return
                    if reply != b"R:" + payload:
                        mismatches.append((slot, i, reply))

            workers = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # more thread switches inside each call
            try:
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(w.is_alive() for w in workers)
            assert mismatches == []
            assert connection._pending == {}
            connection.close()
        finally:
            net.close()


class TestOneWakePerReply:
    """Each caller that must wait parks on its own slot's waiter; a settled
    slot wakes only its caller, a leader that steps down hands the
    readership to exactly one reader, and the demultiplexer blocks in
    ``recv`` with no timed poll."""

    def test_idle_connection_with_async_calls_pending_polls_nothing(self):
        """With only an async call pending against a stalled handler, no
        thread of the network makes a call into the transport or the
        threading module, a ``select`` or a timed wait for a whole second:
        the demultiplexer sits in one blocking ``recv``."""
        entered = threading.Event()
        release = threading.Event()
        recording = threading.Event()
        seen = []

        def handler(data: bytes) -> bytes:
            entered.set()
            release.wait(10.0)
            return data

        def hook(frame, event, arg):
            if not recording.is_set():
                return
            if event == "c_call" and (
                arg is select.select or frame.f_code.co_filename == tcp.__file__
            ):
                seen.append(getattr(arg, "__name__", repr(arg)))
            elif event == "call" and frame.f_code.co_filename in (
                tcp.__file__,
                threading.__file__,
            ):
                seen.append(frame.f_code.co_name)

        threading.setprofile(hook)  # the network's threads start under it
        net = TcpNetwork()
        try:
            net.host("server").listen("svc", handler)
            connection = net.host("client").connect("server/svc")
            reply = connection.call_async(b"stalled")
            assert entered.wait(5.0)
            # Record once a reader owns the socket and the accept loop has
            # finished starting the serving thread.
            assert _poll(lambda: connection._reader_active and not _accept_loop_spawning())
            time.sleep(0.1)  # for the reader to reach its blocking call
            recording.set()
            time.sleep(1.0)
            recording.clear()
            release.set()
            assert reply.result(5.0) == b"stalled"
            connection.close()
        finally:
            threading.setprofile(None)
            release.set()
            net.close()
        assert seen == []

    def test_a_lone_caller_makes_no_waiter(self, monkeypatch):
        """A serial caller always finds nobody reading, so it leads from its
        registration and no slot of its calls is given a waiter."""
        slots: list = []

        class RecordedSlot(tcp._PendingReply):
            __slots__ = ()

            def __init__(self, future=None):
                super().__init__(future)
                slots.append(self)

        monkeypatch.setattr(tcp, "_PendingReply", RecordedSlot)
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            for i in range(50):
                assert connection.call(b"%d" % i, timeout=5.0 if i % 2 else None) == b"%d" % i
            connection.close()
        finally:
            net.close()
        assert len(slots) == 50
        assert all(slot.waiter is None for slot in slots)

    def test_every_park_returns_for_its_own_reply_or_the_readership(self, monkeypatch):
        """Eight threads × 300 calls on one connection, a seeded 0-200 us
        handler and a 10 us switch interval: through a test double around
        each slot's park, no parked caller ever wakes unless its slot was
        settled or the readership was handed to it."""
        parks: list[bool] = []
        woken_for_nothing: list[bool] = []

        class CheckedSlot(tcp._PendingReply):
            __slots__ = ()

            def park(self, timeout=-1):
                woke = super().park(timeout)
                parks.append(woke)
                if not (self.done or self.lead):
                    woken_for_nothing.append(woke)
                return woke

        monkeypatch.setattr(tcp, "_PendingReply", CheckedSlot)
        rng = random.Random(36)

        def handler(data: bytes) -> bytes:
            time.sleep(rng.random() * 200e-6)
            return b"R:" + data

        net = TcpNetwork()
        try:
            net.host("server").listen("echo", handler)
            connection = net.host("client").connect("server/echo")
            mismatches: list = []
            barrier = threading.Barrier(8)

            def worker(slot: int) -> None:
                barrier.wait()
                for i in range(300):
                    payload = b"%d:%d" % (slot, i)
                    try:
                        reply = connection.call(payload)
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        mismatches.append((slot, i, repr(exc)))
                        return
                    if reply != b"R:" + payload:
                        mismatches.append((slot, i, reply))

            workers = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(w.is_alive() for w in workers)
            assert mismatches == []
            assert parks and woken_for_nothing == []
            assert connection._pending == {}
            connection.close()
        finally:
            net.close()

    @pytest.mark.parametrize("woken", [True, False], ids=["woken-late", "timed-out"])
    def test_a_follower_handed_the_readership_as_its_deadline_expires_passes_it_on(
        self, monkeypatch, woken
    ):
        """The leader steps down and hands the readership to the oldest
        follower (both followers carry a deadline) just as that follower's
        deadline expires (its park either returns late or reports the
        timeout): the follower times out, the next follower takes the
        readership and reads its own reply, and no pending slot is left
        behind."""

        class LateSlot(tcp._PendingReply):
            __slots__ = ()

            def park(self, timeout=-1):
                if threading.current_thread().name != "late-follower":
                    return super().park(timeout)
                parked = time.monotonic()
                assert _poll(lambda: self.lead)
                time.sleep(max(0.0, parked + timeout - time.monotonic()) + 0.01)
                return self.waiter.acquire(False) if woken else False

        monkeypatch.setattr(tcp, "_PendingReply", LateSlot)
        entered = threading.Event()
        release = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"lead":
                entered.set()
                release.wait(5.0)
            return data

        net = TcpNetwork()
        try:
            net.host("server").listen("svc", handler)
            connection = net.host("client").connect("server/svc")
            outcomes: dict[str, object] = {}

            def call(name: str, payload: bytes, timeout=None) -> threading.Thread:
                def run() -> None:
                    try:
                        outcomes[name] = connection.call(payload, timeout=timeout)
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        outcomes[name] = exc

                thread = threading.Thread(target=run, name=name)
                thread.start()
                return thread

            callers = [call("leader", b"lead")]
            assert entered.wait(5.0)
            callers.append(call("late-follower", b"late", timeout=0.2))
            assert _poll(lambda: _parked(connection) == 1)
            callers.append(call("next-follower", b"next", timeout=5.0))
            assert _poll(lambda: _parked(connection) == 2)
            release.set()
            for thread in callers:
                thread.join(5.0)
            assert not any(thread.is_alive() for thread in callers)
            assert outcomes["leader"] == b"lead"
            assert isinstance(outcomes["late-follower"], TimeoutError_)
            assert outcomes["next-follower"] == b"next"
            assert connection._pending == {}
            assert not connection._reader_active
            assert connection.call(b"after", timeout=5.0) == b"after"
            connection.close()
        finally:
            release.set()
            net.close()


    @pytest.mark.parametrize("async_pending", [True, False], ids=["async", "sync"])
    def test_a_stepping_down_leader_passes_no_deadline_on(self, async_pending):
        """The leader steps down while a follower with a deadline is parked
        and either an async call or a follower without a deadline is pending
        too, both replies stalled: the readership goes to the demultiplexer
        or to the untimed follower, so the timed follower's deadline drops
        only its own call, where a timed reader's would reset the
        connection, and the other call still gets its reply."""
        entered = threading.Event()
        release = threading.Event()
        stall = threading.Event()

        def handler(data: bytes) -> bytes:
            if data == b"lead":
                entered.set()
                release.wait(5.0)
            elif data in (b"timed", b"other"):
                stall.wait(5.0)
            return data

        net = TcpNetwork()
        try:
            net.host("server").listen("svc", handler)
            connection = net.host("client").connect("server/svc")
            if async_pending:
                # Start the demultiplexer, then let it park.
                assert connection.call_async(b"warm").result(5.0) == b"warm"
                assert _poll(lambda: not connection._reader_active)
            outcomes: dict[str, object] = {}

            def call(name: str, payload: bytes, timeout=None) -> threading.Thread:
                def run() -> None:
                    try:
                        outcomes[name] = connection.call(payload, timeout=timeout)
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        outcomes[name] = exc

                thread = threading.Thread(target=run, name=name)
                thread.start()
                return thread

            callers = [call("leader", b"lead")]
            assert entered.wait(5.0)
            callers.append(call("timed", b"timed", timeout=0.3))
            assert _poll(lambda: _parked(connection) == 1)
            if async_pending:
                other = connection.call_async(b"other")
            else:
                callers.append(call("untimed", b"other"))
                assert _poll(lambda: _parked(connection) == 2)
            release.set()
            callers[0].join(5.0)
            callers[1].join(5.0)
            assert outcomes["leader"] == b"lead"
            assert isinstance(outcomes["timed"], TimeoutError_)
            stall.set()
            if async_pending:
                assert other.result(5.0) == b"other"
            else:
                callers[2].join(5.0)
                assert outcomes["untimed"] == b"other"
            assert _poll(lambda: connection._pending == {})
            connection.close()
        finally:
            release.set()
            stall.set()
            net.close()

    def test_a_reader_never_waits_behind_another_callers_write(self):
        """The first caller is slow to reach the writer lock (a test double
        stalls its first attempt), and a second caller with an 8 MB frame
        arrives meanwhile.  A frame that size fills the socket buffers, so
        its echo can be written only while somebody reads: the first
        caller, having claimed the readership as it registered, must not
        wait behind that write.  Both calls get their replies."""

        class SlowForFirst:
            def __init__(self, lock) -> None:
                self.lock = lock
                self.stalled = False

            def stall(self) -> None:
                if threading.current_thread().name == "first" and not self.stalled:
                    self.stalled = True
                    time.sleep(0.3)

            def acquire(self, blocking=True, timeout=-1):
                self.stall()
                return self.lock.acquire(blocking, timeout)

            def release(self) -> None:
                self.lock.release()

            def __enter__(self):
                self.acquire()

            def __exit__(self, *exc_info) -> None:
                self.lock.release()

        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            connection = net.host("client").connect("server/echo")
            connection._write_lock = SlowForFirst(connection._write_lock)
            outcomes: dict[str, object] = {}

            def call(name: str, payload: bytes) -> threading.Thread:
                def run() -> None:
                    try:
                        outcomes[name] = connection.call(payload) == payload
                    except BaseException as exc:  # noqa: BLE001 - for the assert
                        outcomes[name] = exc

                thread = threading.Thread(target=run, name=name)
                thread.start()
                return thread

            callers = [call("first", b"a" * (8 << 20))]
            assert _poll(lambda: connection._pending)
            callers.append(call("second", b"b" * (8 << 20)))
            for thread in callers:
                thread.join(10.0)
            assert not any(thread.is_alive() for thread in callers), "deadlocked"
            assert outcomes == {"first": True, "second": True}
            connection.close()
        finally:
            net.close()  # wakes a deadlocked caller, failing its call


def _parked(connection) -> int:
    """How many of the connection's callers have parked on their waiter."""
    return sum(slot.waiter is not None for slot in list(connection._pending.values()))


class TestConnectionPool:
    def test_reuses_connection_per_address(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            pool = ConnectionPool(net.host("client"))
            first = pool.get("server/echo")
            assert pool.get("server/echo") is first
            stats = pool.stats()
            assert stats["hits"] == 1 and stats["misses"] == 1
            pool.close()
        finally:
            net.close()

    def test_lru_eviction_closes_oldest(self):
        net = InMemoryNetwork()
        try:
            for name in ("a", "b", "c"):
                net.host(name).listen("s", lambda d: d)
            pool = ConnectionPool(net.host("client"), max_size=2)
            pool.get("a/s")
            pool.get("b/s")
            pool.get("a/s")  # touch: a becomes MRU
            pool.get("c/s")  # evicts b, the LRU entry
            assert pool.stats()["evictions"] == 1
            assert len(pool) == 2
            pool.close()
        finally:
            net.close()

    def test_survives_crash_and_recovery(self):
        """drop() after a crash discards the dead connection; the next get()
        dials fresh and reaches the recovered server."""
        net = TcpNetwork()
        try:
            net.host("server").listen("echo", lambda d: d)
            pool = ConnectionPool(net.host("client"))
            connection = pool.get("server/echo")
            assert connection.call(b"a", timeout=5.0) == b"a"
            net.crash("server")
            with pytest.raises(CommunicationError):
                connection.call(b"b", timeout=5.0)
            pool.drop("server/echo")
            net.recover("server")
            fresh = pool.get("server/echo")
            assert fresh.call(b"c", timeout=5.0) == b"c"
            assert pool.stats()["misses"] == 2
            pool.close()
        finally:
            net.close()


class TestListenRace:
    def test_duplicate_listen_rejected(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("svc", lambda d: d)
            with pytest.raises(CommunicationError):
                net.host("server").listen("svc", lambda d: d)
        finally:
            net.close()

    def test_racing_listens_yield_exactly_one_winner(self):
        """The check-then-act race: two concurrent listen() calls on one
        address must produce exactly one listener, never two."""
        for _ in range(10):
            net = TcpNetwork()
            try:
                outcomes: list[str] = []
                barrier = threading.Barrier(2)

                def try_listen() -> None:
                    barrier.wait()
                    try:
                        net.host("server").listen("svc", lambda d: d)
                        outcomes.append("ok")
                    except CommunicationError:
                        outcomes.append("rejected")

                racers = [threading.Thread(target=try_listen) for _ in range(2)]
                for r in racers:
                    r.start()
                for r in racers:
                    r.join(timeout=10)
                assert sorted(outcomes) == ["ok", "rejected"]
            finally:
                net.close()

    def test_claim_survives_crash_until_closed(self):
        net = TcpNetwork()
        try:
            net.host("server").listen("svc", lambda d: d)
            net.crash("server")
            with pytest.raises(CommunicationError):
                net.host("server").listen("svc", lambda d: d)
        finally:
            net.close()


def _chaos_mux_run(seed: int, threads: int = 4, calls: int = 30) -> list[list[str]]:
    """Drive N clients (each on its own host => its own deterministic fault
    stream) over chaos-wrapped multiplexed TCP; return per-client outcomes."""
    plan = FaultPlan(seed=seed, loss=0.1, corrupt=0.05)
    net = ChaosNetwork(TcpNetwork(), plan)
    outcomes: list[list[str]] = [[] for _ in range(threads)]
    try:
        net.host("server").listen("echo", lambda d: b"R:" + d)
        connections = [
            net.host(f"client-{slot}").connect("server/echo") for slot in range(threads)
        ]
        barrier = threading.Barrier(threads)

        def worker(slot: int) -> None:
            connection = connections[slot]
            record = outcomes[slot]
            barrier.wait()
            for i in range(calls):
                payload = f"{slot}:{i}".encode()
                try:
                    reply = connection.call(payload, timeout=5.0)
                except CommunicationError:
                    record.append("err")
                else:
                    record.append("ok" if reply == b"R:" + payload else "corrupt")

        workers = [threading.Thread(target=worker, args=(s,)) for s in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        for connection in connections:
            connection.close()
    finally:
        net.close()
    return outcomes


class TestChaosOverMux:
    def test_seeded_run_is_deterministic(self):
        """Same seed, same per-client outcome sequences — the PR-1 replay
        guarantee holds with multiplexed framing underneath."""
        first = _chaos_mux_run(seed=1234)
        second = _chaos_mux_run(seed=1234)
        assert first == second
        flat = [o for client in first for o in client]
        assert "err" in flat or "corrupt" in flat  # faults actually fired

    def test_different_seeds_differ(self):
        assert _chaos_mux_run(seed=1) != _chaos_mux_run(seed=2)
