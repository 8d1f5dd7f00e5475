"""Thread census of a deployment: threads follow running tasks, not objects.

Every composite's lane borrows from the deployment's one
:class:`~repro.util.concurrency.WorkerThreads`, so a space of many idle
objects holds no thread for them, a rebalance parks none, and ``close()``
leaves none behind.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
from repro.util import concurrency
from tests.unit.test_concurrency import alive_threads, poll

OBJECTS = 64
HANDFUL = 4
GRACE_S = 2.0  # cqosbench's leak-check grace


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
