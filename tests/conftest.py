"""Shared fixtures: networks, compiled IDL, and CQoS deployments, and the
check that every test leaves nothing running: no socket open and no thread
of a :class:`~repro.util.concurrency.WorkerThreads` set alive."""

from __future__ import annotations

import os
import sys
import threading
import time
import traceback

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
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
