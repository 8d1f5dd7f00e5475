"""Thread census of a deployment: threads follow running tasks, not objects.

Every thread of a deployment — the transport's loops, every composite's
lane, the timer wheel — is borrowed from the network's one
:class:`~repro.util.concurrency.WorkerThreads`, so a space of many idle
objects holds no thread for them, a rebalance parks none, sixteen ticking
objects share one timer thread, a fan-out reuses the threads of the one
before it, and ``close()`` leaves none behind.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.cactus.composite import MicroProtocol
from repro.core.events import EV_READY_TO_SEND
from repro.core.request import Request
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.net.transport import Network
from repro.qos import ActiveRep, TimedSched, TotalOrder
from repro.qos.fault_tolerance.active import ATTR_SCATTER, ORDER_SUBMIT
from repro.util import concurrency
from repro.util.errors import CommunicationError, ReproError
from tests.unit.test_concurrency import alive_threads, poll

OBJECTS = 64
HANDFUL = 4
GRACE_S = 2.0  # cqosbench's leak-check grace
#: How soon a caller whose request is held must be back once close() is called.
CLOSE_BOUND_S = 1.0


def _workers():
    return alive_threads("census-worker")


@pytest.fixture
def sharded():
    # Threads other tests left behind are not this deployment's: count only
    # what starts from here on, and name this deployment's set apart.
    before = set(threading.enumerate())
    dep = CqosDeployment(
        InMemoryNetwork(), platform="http", compiled=bank_compiled(), request_timeout=10.0
    )
    dep._threads._name = "census-worker"
    iface = bank_interface()
    space = dep.shard_space({"a": 2, "b": 2, "c": 2})
    ids = [f"acct-{k}" for k in range(OBJECTS)]
    for oid in ids:
        space.add_object(oid, BankAccount, iface)
    stubs = [space.client_stub(oid, iface) for oid in ids]
    for k, stub in enumerate(stubs):
        stub.set_balance(float(k))
    yield dep, space, stubs, lambda: len(set(threading.enumerate()) - before)
    dep.close()


def test_idle_objects_and_rebalance_hold_no_threads(sharded):
    dep, space, stubs, started = sharded
    for call in range(1000):
        stubs[call % OBJECTS].get_balance()
    assert started() <= HANDFUL and _workers() == []
    space.add_group("d", 2)  # retired mounts keep their composites
    for k, stub in enumerate(stubs):
        assert stub.get_balance() == float(k)
    assert started() <= HANDFUL and _workers() == []


def test_burst_falls_back_and_close_leaves_nothing(sharded, monkeypatch):
    dep, _, stubs, started = sharded
    monkeypatch.setattr(concurrency, "KEEP_ALIVE_S", 0.1)
    gate = threading.Event()
    composites = dep._cactus[:32]
    raised = []
    for composite in composites:
        composite.bind("burst", lambda occurrence: gate.wait(5.0))
        raised.append(composite.raise_event("burst", mode="async"))
    assert len(_workers()) == 32
    gate.set()
    for future in raised:
        future.result(2.0)
    assert poll(lambda: not _workers(), timeout=2.0)
    assert stubs[0].get_balance() == 0.0

    monkeypatch.setattr(concurrency, "KEEP_ALIVE_S", 60.0)
    dep._cactus[0].raise_event("burst", mode="async").result(2.0)
    assert len(_workers()) == 1  # parked for a minute, were it not for close()
    dep.close()
    assert poll(lambda: not _workers(), timeout=GRACE_S)
    assert started() <= HANDFUL
    dep.close()  # safe to call twice


# -- one scheduler per deployment, over both networks ---------------------------

class _Wrapped(Network):
    """A decorator from outside ``src/`` (cqosbench's ``CountingNetwork`` is
    one): no base initialiser run, no ``threads`` forwarded, ``close()`` only
    closes what it wraps.  It has a set of its own, which the deployment that
    borrowed it closes."""

    def __init__(self):
        self._inner = InMemoryNetwork()

    def host(self, name):
        return self._inner.host(name)

    def crash(self, host_name):
        self._inner.crash(host_name)

    def recover(self, host_name):
        self._inner.recover(host_name)

    def close(self):
        self._inner.close()


NETWORKS = {
    "memory": (InMemoryNetwork, "rmi"),
    "tcp": (TcpNetwork, "corba"),
    "wrapped": (_Wrapped, "http"),
}


@pytest.fixture(params=sorted(NETWORKS))
def deployed(request):
    """A deployment and the threads alive since just before it was made."""
    network, platform = NETWORKS[request.param]
    before = set(threading.enumerate())
    dep = CqosDeployment(
        network(), platform=platform, compiled=bank_compiled(), request_timeout=10.0
    )
    yield dep, lambda: set(threading.enumerate()) - before
    dep.close()


def _timer_threads(prefix):
    """Threads of the set named ``prefix`` now inside a timer loop,
    whichever class it belongs to."""

    def in_timer_loop(frame):
        while frame is not None:
            if "timer" in frame.f_code.co_qualname.lower():
                return True
            frame = frame.f_back
        return False

    frames = sys._current_frames()
    return [
        thread for thread in alive_threads(prefix)
        if thread.ident in frames and in_timer_loop(frames[thread.ident])
    ]


def test_ticking_objects_share_one_timer_thread(deployed):
    dep, _ = deployed
    # Only this deployment's set, by name: a wheel thread of an earlier
    # test's closed network may still be inside its loop now and leave it
    # later, and a thread ident can be handed out again.
    dep._threads._name = "ticking-worker"
    for k in range(16):
        dep.add_replicas(
            f"acct-{k}", BankAccount, bank_interface(),
            server_micro_protocols=lambda: [TimedSched()],
        )
    stubs = [dep.client_stub(f"acct-{k}", bank_interface()) for k in range(16)]
    for k, stub in enumerate(stubs):
        stub.set_balance(float(k))
    assert poll(lambda: len(_timer_threads("ticking-worker")) == 1, timeout=1.0)
    assert stubs[3].get_balance() == 3.0


def test_fanout_reuses_parked_threads(deployed, monkeypatch):
    dep, _ = deployed
    calls = 200 if isinstance(dep.network, TcpNetwork) else 2000  # real sockets: keep it quick
    dep.add_replicas("acct", BankAccount, bank_interface(), replicas=3)
    stub = dep.client_stub("acct", bank_interface(), client_micro_protocols=lambda: [ActiveRep()])
    for warm in range(100):  # the threads a fan-out needs are parked by now
        stub.set_balance(float(warm))
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(
        threading.Thread, "start", lambda thread: (started.append(thread.name), start(thread))[1]
    )
    for call in range(calls):
        stub.set_balance(float(call))
    assert len(started) <= 8, started[:20]


def test_close_leaves_no_thread_of_the_set(deployed, monkeypatch):
    dep, leftover = deployed
    monkeypatch.setattr(concurrency, "KEEP_ALIVE_S", 60.0)
    skeletons = dep.add_replicas(
        "acct", BankAccount, bank_interface(), replicas=3,
        server_micro_protocols=lambda: [TimedSched()],
    )
    stub = dep.client_stub("acct", bank_interface(), client_micro_protocols=lambda: [ActiveRep()])
    for call in range(20):
        stub.deposit(1.0)
    # No request in flight at close: one that TimedSched still gates would
    # wait out its request_timeout on its serving thread, as it always has.
    # Deposits, because ActiveRep without TotalOrder lets a straggling
    # branch of one call land after the next: the sum says all twenty did.
    probe = Request("acct", "get_balance", [])
    assert poll(lambda: all(s._platform.invoke_servant(probe) == 20.0 for s in skeletons))
    assert leftover()  # parked for a minute, loops waiting: were it not for close()
    dep.close()
    assert poll(lambda: not leftover(), timeout=GRACE_S), sorted(t.name for t in leftover())


def test_close_fails_the_requests_totalorder_backups_hold(deployed):
    """With the sequencer crashed, both backups hold the call unordered in
    ``TotalOrder``, the client's ``quorum:2`` gather waits for them and the
    caller waits for the gather: ``close()`` fails all of them at once (the
    parent let each wait out its 10 s ``request_timeout``), so the caller
    sees an error at once and no thread is left."""
    dep, leftover = deployed
    orders = []

    def total_order():
        orders.append(TotalOrder(order_timeout=60.0))
        return [orders[-1]]

    dep.add_replicas(
        "acct", BankAccount, bank_interface(), replicas=3, server_micro_protocols=total_order
    )
    stub = dep.client_stub(
        "acct", bank_interface(),
        client_micro_protocols=lambda: [ActiveRep(gather_policy="quorum:2")],
    )
    dep.crash_replica("acct", 1)
    outcome = []

    def call():
        try:
            outcome.append(stub.deposit(1.0))
        except ReproError as exc:  # the client's composite or a backup's reply failed it
            outcome.append(exc)

    def caller_waits():  # in the client's wait for the gather
        frame = sys._current_frames().get(caller.ident)
        while frame is not None and frame.f_code is not Request.wait.__code__:
            frame = frame.f_back
        return frame is not None

    caller = threading.Thread(target=call)
    caller.start()
    assert poll(lambda: sum(len(order._unordered) for order in orders) == 2 and caller_waits())
    start = time.monotonic()
    dep.close()
    closed = time.monotonic() - start
    caller.join(CLOSE_BOUND_S)
    returned = time.monotonic() - start
    assert poll(lambda: not leftover(), timeout=GRACE_S), sorted(t.name for t in leftover())
    quiescent = time.monotonic() - start
    print(f"close {closed * 1e3:.1f} ms, caller back {returned * 1e3:.1f} ms, "
          f"no thread left {quiescent * 1e3:.1f} ms")
    assert not caller.is_alive() and isinstance(outcome[0], ReproError)
    assert returned < CLOSE_BOUND_S < dep.request_timeout


class _ShutLaneMidScatter(MicroProtocol):
    """Shuts its composite's runtime as ``ActiveRep``'s scatter raises
    readyToSend for the last replica, before the gather is submitted: what
    ``close()`` does to a call still inside its scatter."""

    name = "ShutLaneMidScatter"

    def __init__(self, replicas: int):
        super().__init__()
        self._replicas = replicas
        self.sends = 0

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.ready_to_send, order=ORDER_SUBMIT - 1)

    def ready_to_send(self, occurrence) -> None:
        if ATTR_SCATTER in occurrence.args[0].attributes:
            self.sends += 1
            if self.sends == self._replicas:
                self.composite.runtime.shutdown()


def test_a_lane_shut_mid_scatter_fails_the_call_with_a_communication_error(deployed):
    """The gather cannot be submitted to a shut lane: the caller gets a
    ``CommunicationError``, as a request held at close does, not the
    executor's ``RuntimeError``, and the branches already sent are
    abandoned."""
    dep, leftover = deployed
    dep.add_replicas("acct", BankAccount, bank_interface(), replicas=3)
    probes = []

    def protocols():
        probes.append(_ShutLaneMidScatter(3))
        return [ActiveRep(), probes[-1]]

    stub = dep.client_stub("acct", bank_interface(), client_micro_protocols=protocols)
    with pytest.raises(CommunicationError, match="shut down"):
        stub.deposit(1.0)
    assert probes[-1].sends == 3
    dep.close()
    assert poll(lambda: not leftover(), timeout=GRACE_S), sorted(t.name for t in leftover())
