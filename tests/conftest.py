"""Shared fixtures: networks, compiled IDL, and CQoS deployments, and two
checks on every test: that it leaves nothing running (no socket open and no
thread of a :class:`~repro.util.concurrency.WorkerThreads` set alive), and
that the replicas of every totally ordered object end in one state."""

from __future__ import annotations

import os
import reprlib
import sys
import threading
import time
import traceback

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.util.concurrency import WorkerThreads


#: How long a test's sockets and threads may take to end after its teardown:
#: a serving thread closes an accepted socket when it next runs, and a
#: parked thread of a set nobody closed exits ``KEEP_ALIVE_S`` (2 s) after
#: its last job.
GRACE_S = 5.0

_WORKER_RUN = WorkerThreads._run.__code__


def open_sockets() -> set[tuple[str, str]]:
    """This process's open socket descriptors, as ``(fd, "socket:[inode]")``."""
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed while listed (or the listing's own descriptor)
        if target.startswith("socket:"):
            found.add((fd, target))
    return found


def worker_threads() -> dict[threading.Thread, object]:
    """Live threads a ``WorkerThreads`` set started, each with its frame."""
    frames = sys._current_frames()
    found = {}
    for thread in threading.enumerate():
        frame = outer = frames.get(thread.ident)
        while outer is not None and outer.f_code is not _WORKER_RUN:
            outer = outer.f_back
        if outer is not None:
            found[thread] = frame
    return found


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "leaves_threads(reason): the test leaves WorkerThreads threads running "
        "on purpose, for the reason given; the check after teardown skips them",
    )
    config.addinivalue_line(
        "markers",
        "replicas_may_diverge(reason): the test's totally ordered replicas may "
        "end in different states on purpose, for the reason given; the "
        "agreement check skips them",
    )


@pytest.fixture(autouse=True)
def nothing_left_running(request):
    """Fail a test that leaves a socket open or a ``WorkerThreads`` thread
    alive once its teardown is done, printing each leftover thread's stack."""
    sockets_before = open_sockets()
    threads_before = set(worker_threads())
    yield
    marker = request.node.get_closest_marker("leaves_threads")
    if marker is not None and not (marker.args and str(marker.args[0]).strip()):
        pytest.fail("leaves_threads needs its reason", pytrace=False)
    check_threads = marker is None
    deadline = time.monotonic() + GRACE_S
    while True:
        sockets = open_sockets() - sockets_before
        threads = {
            thread: frame
            for thread, frame in worker_threads().items()
            if check_threads and thread not in threads_before
        }
        if not (sockets or threads) or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    problems = []
    if sockets:
        named = ", ".join(f"fd {fd} ({target})" for fd, target in sorted(sockets))
        problems.append(f"sockets still open after teardown: {named}")
    if threads:
        problems.append(f"{len(threads)} WorkerThreads thread(s) still alive after teardown:")
        for thread, frame in threads.items():
            problems.append(f"--- {thread.name}\n" + "".join(traceback.format_stack(frame)))
    if problems:
        pytest.fail("\n".join(problems), pytrace=False)


#: How long the agreement check waits for replicas to converge: the first
#: reply completes a call while slower replicas may still be executing it.
QUIESCE_S = 10.0

#: Servant state the agreement check compares, by servant class.  A replica
#: group whose servants have no probe here is not compared.
STATE_PROBES = {
    BankAccount: lambda servant: (servant.get_balance(), servant.history(sys.maxsize)),
}


def _disagreement(object_id: str, servants: dict, probe) -> str | None:
    """Wait for ``servants`` (replica -> servant) to reach one ``probe``
    state; describe the states if they do not within ``QUIESCE_S``."""
    deadline = time.monotonic() + QUIESCE_S
    while True:
        states = {replica: probe(servant) for replica, servant in servants.items()}
        first = next(iter(states.values()))
        if all(state == first for state in states.values()):
            return None
        if time.monotonic() >= deadline:
            shown = {replica: reprlib.repr(state) for replica, state in states.items()}
            return f"replicas of {object_id!r} ended in different states: {shown}"
        time.sleep(0.02)


@pytest.fixture(autouse=True)
def replicas_agree(request, monkeypatch):
    """Fail a test whose live replicas of an object, every one running
    ``TotalOrder``, end in different servant states.

    Wraps ``CqosDeployment.add_replicas`` to record each replica's servant
    and stack and compares them when their deployment closes (or at
    teardown, if it never does).  A replica whose host ever crashed is left
    out: it missed what was ordered while it was down.
    """
    marker = request.node.get_closest_marker("replicas_may_diverge")
    if marker is not None:
        if not (marker.args and str(marker.args[0]).strip()):
            pytest.fail("replicas_may_diverge needs its reason", pytrace=False)
        yield
        return
    groups: list = []  # (deployment, object_id, {replica: servant}, skeletons)
    crashed: set[str] = set()
    problems: list[str] = []
    add_replicas = CqosDeployment.add_replicas
    close = CqosDeployment.close

    def recording_add_replicas(self, object_id, servant_factory, *args, **kwargs):
        servants = {}

        def factory():
            servants[len(servants) + 1] = servant = servant_factory()
            return servant

        skeletons = add_replicas(self, object_id, factory, *args, **kwargs)
        groups.append((self, object_id, servants, skeletons))
        return skeletons

    def check(deployment):
        mine = [group for group in groups if group[0] is deployment]
        groups[:] = [group for group in groups if group[0] is not deployment]
        for _, object_id, servants, skeletons in mine:
            live = {
                replica: servant
                for replica, servant in servants.items()
                if deployment.replica_host_name(object_id, replica) not in crashed
            }
            ordered = all(
                skeleton.cactus_server is not None
                and "TotalOrder" in skeleton.cactus_server.micro_protocol_names()
                for skeleton in skeletons
            )
            if not ordered or len(live) < 2:
                continue
            probe = STATE_PROBES.get(type(next(iter(live.values()))))
            problem = probe and _disagreement(object_id, live, probe)
            if problem:
                problems.append(problem)

    def checking_close(self):
        try:
            check(self)
        finally:
            close(self)

    def recording_crash(crash):
        def wrapper(self, host_name):
            crashed.add(host_name)
            return crash(self, host_name)

        return wrapper

    monkeypatch.setattr(CqosDeployment, "add_replicas", recording_add_replicas)
    monkeypatch.setattr(CqosDeployment, "close", checking_close)
    for network_class in (InMemoryNetwork, TcpNetwork):
        monkeypatch.setattr(network_class, "crash", recording_crash(network_class.crash))
    yield
    for deployment in {id(group[0]): group[0] for group in groups}.values():
        check(deployment)
    if problems:
        pytest.fail("\n".join(problems), pytrace=False)


@pytest.fixture
def network():
    """A fresh zero-latency in-memory network."""
    net = InMemoryNetwork()
    yield net
    net.close()


@pytest.fixture
def compiled_bank():
    return bank_compiled()


@pytest.fixture
def bank_iface():
    return bank_interface()


@pytest.fixture(params=["corba", "rmi", "http"])
def platform(request):
    """Run the test once per middleware platform (including the HTTP
    platform of the paper's §2.1 generality claim)."""
    return request.param


@pytest.fixture
def deployment(network, platform, compiled_bank):
    dep = CqosDeployment(
        network, platform=platform, compiled=compiled_bank, request_timeout=10.0
    )
    yield dep
    dep.close()


def make_account(**kwargs):
    """Servant factory usable as add_replicas' servant_factory."""
    return lambda: BankAccount(**kwargs)
