"""Benchmark-owned instruments: everything is measured from outside.

Nothing here reaches into the program.  Bytes are counted by a decorator
over the transport ABCs, calls by the interpreter's profile hook, stage
times by an :class:`InvocationObserver` on the documented hook points, and
leaks by looking at the process.  Imports the system under test, so only
the child process (and the tests) load it.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.core.platform import InvocationObserver
from repro.net.transport import FrameHandler, Host, Listener, Network

LAYERS = ("core", "cactus", "qos", "serialization", "net", "orb", "rmi", "http", "crypto", "util")
OTHER = "other"


# -- bytes on the wire --------------------------------------------------------


class _CountingHost(Host):
    def __init__(self, network: "CountingNetwork", inner: Host):
        super().__init__(inner.name)
        self._network = network
        self._inner = inner

    def listen(self, service: str, handler: FrameHandler) -> Listener:
        network = self._network

        def counted(frame: bytes) -> bytes:
            reply = handler(frame)
            if network.enabled:
                network.frames.append((len(frame), len(reply)))
            return reply

        # The asyncio engine reads this mark off the handler it is given.
        if getattr(handler, "cqos_blocking", False):
            counted.cqos_blocking = True
        return self._inner.listen(service, counted)

    def connect(self, address: str):
        return self._inner.connect(address)


class CountingNetwork(Network):
    """Records (request bytes, reply bytes) of every frame pair served.

    Counting happens where a listener hands a frame to its handler, so one
    place covers blocking and future-based sends alike.  Sizes are those of
    the frames the program passes to ``Connection.call``; the transport's
    own length prefix is not part of them.
    """

    def __init__(self, inner: Network):
        self._inner = inner
        self._hosts: dict[str, _CountingHost] = {}
        self._lock = threading.Lock()
        self.enabled = False
        self.frames: list[tuple[int, int]] = []

    def host(self, name: str) -> Host:
        with self._lock:
            host = self._hosts.get(name)
            if host is None:
                host = self._hosts[name] = _CountingHost(self, self._inner.host(name))
            return host

    def crash(self, host_name: str) -> None:
        self._inner.crash(host_name)

    def recover(self, host_name: str) -> None:
        self._inner.recover(host_name)

    def close(self) -> None:
        self._inner.close()


# -- calls per invocation -----------------------------------------------------

_OWN = "<cqosbench>"
_FOREIGN = None


class CallCounter:
    """Counts Python and C calls on every thread, by `src/repro` package.

    A call is charged to the nearest frame up its stack that belongs to a
    package under ``src/repro/`` (so a lock taken by `net` is `net`'s call);
    frames of the benchmark itself and whatever they call are left out.
    While :attr:`timing` is on as well, the thread CPU time between profile
    events is charged the same way, which gives each layer's share of
    profiled CPU; it costs two clock reads an event, so it is kept to a
    part of the counted calls.

    The hook only sees threads started after :meth:`install`, so install it
    before building the deployment and switch :attr:`enabled` on for the
    counted calls.
    """

    def __init__(self, repro_root: str, own_root: str):
        self._repro_root = repro_root.rstrip(os.sep) + os.sep
        self._own_root = own_root.rstrip(os.sep) + os.sep
        self.enabled = False
        self.timing = False
        self.calls: dict[str, int] = dict.fromkeys((*LAYERS, OTHER), 0)
        self.cpu_ns: dict[str, int] = dict.fromkeys((*LAYERS, OTHER), 0)
        self._hook = self._make_hook()

    def install(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def uninstall(self) -> None:
        self.enabled = self.timing = False
        sys.setprofile(None)
        threading.setprofile(None)

    def _classify(self, code) -> str | None:
        filename = code.co_filename
        if filename.startswith(self._repro_root):
            package = filename[len(self._repro_root):].split(os.sep, 1)[0]
            return package if package in LAYERS else OTHER
        if filename.startswith(self._own_root):
            return _OWN
        return _FOREIGN

    def _make_hook(self):
        by_code: dict = {}
        classify = self._classify
        calls = self.calls
        cpu_ns = self.cpu_ns
        last: dict[int, int] = {}
        get_ident = threading.get_ident
        thread_time = time.thread_time_ns

        def owner(frame) -> str:
            while frame is not None:
                code = frame.f_code
                try:
                    layer = by_code[code]
                except KeyError:
                    layer = by_code[code] = classify(code)
                if layer is not _FOREIGN:
                    return layer
                frame = frame.f_back
            return OTHER

        def hook(frame, event, arg):
            if not self.enabled:
                return
            if not self.timing:
                if event == "call" or event == "c_call":
                    layer = owner(frame)
                    if layer is not _OWN:
                        calls[layer] += 1
                if last:
                    last.clear()
                return
            now = thread_time()
            ident = get_ident()
            # Until this event the caller ran (on "call") or this frame did.
            running = owner(frame.f_back if event == "call" else frame)
            before = last.get(ident)
            if before is not None and running is not _OWN:
                cpu_ns[running] += now - before
            if event == "call" or event == "c_call":
                layer = owner(frame)
                if layer is not _OWN:
                    calls[layer] += 1
            last[ident] = thread_time()

        return hook


# -- stage spans ---------------------------------------------------------------

STAGES = (
    "client_pre", "wire_out", "server_pre", "servant", "server_post", "wire_back", "client_post",
)


class StageObserver(InvocationObserver):
    """Timestamps the six inner hook points of one invocation at a time.

    With the caller's own clock readings before and after the stub call
    they bound the seven stages.  Every timed workload has one request in
    flight and one branch, so one slot per hook is enough; a hook that did
    not fire leaves a zero behind and the stage-sum check fails the run.
    """

    def __init__(self) -> None:
        self._t = [0] * 6
        #: Six timestamps (ns) per invocation, appended as its stub call completes.
        self.invocations: list[tuple[int, ...]] = []

    def on_wire_send(self, request, server) -> None:
        self._t[0] = time.perf_counter_ns()

    def on_skeleton_receive(self, object_id, operation, context) -> None:
        self._t[1] = time.perf_counter_ns()

    def on_servant_invoke(self, request) -> None:
        self._t[2] = time.perf_counter_ns()

    def on_servant_return(self, request, value) -> None:
        self._t[3] = time.perf_counter_ns()

    def on_skeleton_reply(self, object_id, operation, value) -> None:
        self._t[4] = time.perf_counter_ns()

    def on_wire_reply(self, request, server, value) -> None:
        self._t[5] = time.perf_counter_ns()

    def on_stub_complete(self, request, error) -> None:
        self.invocations.append(tuple(self._t))
        self._t = [0] * 6


def spans_of(invocation: int, stamps: tuple[int, ...]) -> list[dict]:
    """The span records of one invocation: a root and its seven stages."""
    root = {"id": invocation, "name": "invoke", "start": stamps[0], "end": stamps[7], "parent": None}
    return [root] + [
        {"id": invocation, "name": stage, "start": stamps[i], "end": stamps[i + 1], "parent": "invoke"}
        for i, stage in enumerate(STAGES)
    ]


# -- leaks ------------------------------------------------------------------------


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def leaks_after_close(descriptors_before: int, grace: float = 2.0) -> list[str]:
    """What a closed deployment left behind (after a short grace period).

    Daemon threads are allowed to linger: the transports park their accept
    loops on them and they die with the process.
    """
    deadline = time.monotonic() + grace
    while True:
        stray = [
            t.name for t in threading.enumerate()
            if t is not threading.main_thread() and not t.daemon
        ]
        extra = open_descriptors() - descriptors_before
        if (not stray and extra <= 0) or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    problems = [f"non-daemon thread {name!r} still alive" for name in stray]
    if extra > 0:
        problems.append(f"{extra} descriptor(s) still open")
    return problems
