"""Shared fixtures: networks, compiled IDL, and CQoS deployments, and the
check that every test closes the sockets it opened."""

from __future__ import annotations

import os
import time

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork


#: How long a test's sockets may take to close after its teardown: a serving
#: thread closes an accepted socket when it next runs.
SOCKET_GRACE_S = 3.0


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


@pytest.fixture(autouse=True)
def sockets_closed():
    """Fail a test that leaves a socket open once its teardown is done."""
    before = open_sockets()
    yield
    deadline = time.monotonic() + SOCKET_GRACE_S
    while (left := open_sockets() - before) and time.monotonic() < deadline:
        time.sleep(0.01)
    if left:
        named = ", ".join(f"fd {fd} ({target})" for fd, target in sorted(left))
        pytest.fail(f"sockets still open after teardown: {named}", pytrace=False)


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
