"""Regression tests: schedulers + TotalOrder, the paper's §3.4 conflict.

A request that passed scheduler admission, took a sequence number, and
parked in TotalOrder gets re-dispatched through ``readyToInvoke`` when its
turn comes.  The scheduler must recognize it as already admitted — sending
it back to the queue deadlocks both protocols (the ordering waits on a
sequence number that sits in the scheduler queue); sticky admission pins
that.  And with a scheduler on every replica, only the sequencer's may
differentiate: a follower that queued too would hold back the sequence
numbers its own ordering waits for, and stall or diverge.  The mixed-load
tests put the scheduler on every replica, as the configuration matrix does,
and require the replicas to agree.
"""

import threading

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.core.events import EV_READY_TO_INVOKE
from repro.core.request import PB_CLIENT_ID, Request
from repro.core.server import CactusServer
from repro.qos import ActiveRep, PrioritySched, QueuedSched, TimedSched, TotalOrder
from repro.qos.timeliness import HIGH_PRIORITY, LOW_PRIORITY
from repro.qos.timeliness.common import ATTR_ADMITTED
from tests.integration.test_fault_tolerance import _probe_request, _quiesce
from tests.unit.test_core_components import FakeServerPlatform


def policy(request):
    return HIGH_PRIORITY if request.client_id.startswith("high") else LOW_PRIORITY


@pytest.mark.parametrize("scheduler_factory", [TimedSched, QueuedSched])
def test_admitted_requests_pass_scheduler_on_redispatch(scheduler_factory):
    platform = FakeServerPlatform()
    server = CactusServer.with_base(
        platform,
        [scheduler_factory()],
        priority_policy=policy,
        request_timeout=5.0,
    )
    try:
        request = Request("obj", "echo", ["x"], piggyback={PB_CLIENT_ID: "low-1"})
        # First pass: admitted (idle scheduler).
        assert server.cactus_invoke(request) == "x"
        assert request.attributes.get(ATTR_ADMITTED)
        # Simulate a TotalOrder-style re-dispatch of an admitted request:
        # it must reach the servant again, never the scheduler queue.
        request2 = Request("obj", "echo", ["y"], piggyback={PB_CLIENT_ID: "low-1"})
        request2.attributes[ATTR_ADMITTED] = True
        server.raise_event(EV_READY_TO_INVOKE, request2)
        assert request2.wait(5.0) == "y"
    finally:
        server.shutdown()
        server.runtime.shutdown()


def _mixed_load(deployment, schedulers):
    """Three replicas running TotalOrder plus ``schedulers()``; two high and
    two low ActiveRep clients make ten deposits each, concurrently.  Returns
    the skeletons once every client is done."""
    skeletons = deployment.add_replicas(
        "acct",
        BankAccount,
        bank_interface(),
        replicas=3,
        server_micro_protocols=lambda: [TotalOrder(), *schedulers()],
        priority_policy=policy,
    )
    errors = []

    def client(name, count):
        try:
            stub = deployment.client_stub(
                "acct",
                bank_interface(),
                client_id=name,
                client_micro_protocols=lambda: [ActiveRep()],
            )
            for _ in range(count):
                stub.deposit(1.0)
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(name, 10))
        for name in ("high-a", "high-b", "low-a", "low-b")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=90)
    assert not any(t.is_alive() for t in threads), "mixed load deadlocked"
    assert not errors, errors[:3]
    return skeletons


def test_timed_sched_with_total_order_under_mixed_load(deployment):
    """End-to-end regression: the exact deadlock scenario — TimedSched on
    every replica, TotalOrder everywhere, mixed-priority concurrency."""
    _mixed_load(deployment, lambda: [TimedSched(period=0.01, high_rate_threshold=1)])


SCHEDULERS = {
    "none": lambda: [],
    "PrioritySched": lambda: [PrioritySched()],
    "QueuedSched": lambda: [QueuedSched()],
    "TimedSched": lambda: [TimedSched(period=0.01, high_rate_threshold=1)],
}


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_replicas_agree_under_every_scheduler(deployment, scheduler):
    """Every replica executes all forty deposits, in one order."""
    skeletons = _mixed_load(deployment, SCHEDULERS[scheduler])
    histories = _quiesce(
        skeletons,
        lambda s: s._platform.invoke_servant(_probe_request("history", 100)),
    )
    assert all(history == histories[0] for history in histories), histories
    assert [entry["balance_after"] for entry in histories[0]] == [
        float(n) for n in range(1, 41)
    ]
