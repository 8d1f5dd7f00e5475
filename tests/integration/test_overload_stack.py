"""Integration tests for the composed overload-protection stack.

Covers the cross-cutting behaviours no single protocol's unit tests can:
per-key invalidation deltas ferried between clients on the reply leg,
stale-while-shedding serving, RetryBackoff honouring the server's
Retry-After hint, per-class token buckets shedding the low classes first,
deadline-aware admission shedding doomed work, and the slot-release
regression (a request faulting between admission and invokeReturn must
still free its concurrency slot) under a chaos-wrapped network.
"""

import threading
import time

import pytest

from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.cactus.composite import MicroProtocol
from repro.cactus.events import ORDER_EARLY, ORDER_LAST
from repro.core.events import EV_INVOKE_SUCCESS, EV_READY_TO_INVOKE
from repro.core.service import CqosDeployment
from repro.net.chaos import ChaosNetwork
from repro.net.memory import InMemoryNetwork
from repro.qos import RetryBackoff
from repro.qos.extensions import (
    AdmissionControl,
    AdmissionRejectedError,
    CacheInvalidator,
    ClientCache,
)
from repro.qos.fault_tolerance.deadline import DeadlineBudget, DeadlineShed
from repro.util.errors import DeadlineExceededError
from repro.qos.timeliness import HIGH_PRIORITY, LOW_PRIORITY
from repro.qos.timeliness.common import HIGH_PRIORITY_THRESHOLD

READS = ["get_balance", "owner"]
#: Bank reads from the *server's* perspective (history is read-only too —
#: leaving it out would make every history() call bump the epoch).
SERVER_READS = ["get_balance", "owner", "history"]
INVALIDATES = {
    "deposit": ["get_balance"],
    "withdraw": ["get_balance"],
    "set_balance": ["get_balance"],
}


class TestCoherentInvalidation:
    def test_other_clients_write_reaches_cache_via_piggyback(
        self, deployment, network
    ):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                CacheInvalidator(read_operations=SERVER_READS, invalidates=INVALIDATES)
            ],
        )
        reader = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ClientCache(read_operations=READS)],
        )
        writer = deployment.client_stub("acct", bank_interface())
        reader.set_balance(5.0)
        assert reader.get_balance() == 5.0  # cached (ttl=0: never expires)
        assert reader.owner() == "alice"  # cached
        writer.deposit(1.0)  # bumps the server's invalidation epoch
        # Any later server round-trip ferries the delta back to the reader;
        # history() is uncached on the client but read-only on the server.
        reader.history(1)
        # get_balance was invalidated per-key -> fresh read sees the write.
        assert reader.get_balance() == 6.0
        # ... while owner survived the delta: served locally, zero messages.
        before = network.message_count
        assert reader.owner() == "alice"
        assert network.message_count == before

    def test_own_write_invalidates_only_mapped_reads(self, deployment, network):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                CacheInvalidator(read_operations=SERVER_READS, invalidates=INVALIDATES)
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ClientCache(read_operations=READS)],
        )
        assert stub.get_balance() == 0.0
        assert stub.owner() == "alice"
        stub.deposit(2.5)  # reply carries delta: invalidate get_balance only
        before = network.message_count
        assert stub.owner() == "alice"  # still a cache hit
        assert network.message_count == before
        assert stub.get_balance() == 2.5  # invalidated -> real read
        assert network.message_count > before
        cache: ClientCache = stub.cactus_client.micro_protocol("ClientCache")
        assert cache.hits >= 1

    def test_without_invalidator_writes_clear_everything(self, deployment, network):
        """The historical all-or-nothing fallback still applies."""
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ClientCache(read_operations=READS)],
        )
        assert stub.get_balance() == 0.0
        assert stub.owner() == "alice"
        stub.deposit(1.0)  # no server half -> legacy full clear
        before = network.message_count
        stub.owner()
        assert network.message_count > before  # cache was fully cleared


class TestStaleWhileShedding:
    def test_expired_entry_served_when_server_sheds(self, deployment):
        gate = threading.Event()
        entered = threading.Event()

        class Slow(BankAccount):
            def history(self, count):
                entered.set()
                gate.wait(10.0)
                return super().history(count)

        deployment.add_replicas(
            "acct",
            Slow,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(max_concurrent=1, exempt_high_priority=False)
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                ClientCache(
                    read_operations=["get_balance"],
                    ttl=0.01,
                    stale_while_shedding=True,
                )
            ],
        )
        stub.set_balance(7.0)
        assert stub.get_balance() == 7.0  # primes the cache
        time.sleep(0.05)  # entry expires
        blocker = deployment.client_stub("acct", bank_interface())
        thread = threading.Thread(target=lambda: blocker.history(1))
        thread.start()
        assert entered.wait(10.0)
        try:
            # Refresh is shed by admission control; the expired entry is
            # served instead of the rejection.
            assert stub.get_balance() == 7.0
            cache: ClientCache = stub.cactus_client.micro_protocol("ClientCache")
            assert cache.stale_serves == 1
        finally:
            gate.set()
            thread.join(10.0)

    def test_without_flag_the_rejection_propagates(self, deployment):
        gate = threading.Event()
        entered = threading.Event()

        class Slow(BankAccount):
            def history(self, count):
                entered.set()
                gate.wait(10.0)
                return super().history(count)

        deployment.add_replicas(
            "acct",
            Slow,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(max_concurrent=1, exempt_high_priority=False)
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                ClientCache(read_operations=["get_balance"], ttl=0.01)
            ],
        )
        stub.get_balance()
        time.sleep(0.05)
        blocker = deployment.client_stub("acct", bank_interface())
        thread = threading.Thread(target=lambda: blocker.history(1))
        thread.start()
        assert entered.wait(10.0)
        try:
            with pytest.raises(AdmissionRejectedError):
                stub.get_balance()
        finally:
            gate.set()
            thread.join(10.0)


class TestRetryAfterHint:
    def test_backoff_client_rides_out_the_shed(self, deployment):
        gate = threading.Event()
        entered = threading.Event()

        class Slow(BankAccount):
            def history(self, count):
                entered.set()
                gate.wait(10.0)
                return super().history(count)

        deployment.add_replicas(
            "acct",
            Slow,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(max_concurrent=1, exempt_high_priority=False)
            ],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                RetryBackoff(max_attempts=6, base_delay=0.01, max_delay=0.2, seed=7)
            ],
        )
        blocker = deployment.client_stub("acct", bank_interface())
        thread = threading.Thread(target=lambda: blocker.history(1))
        thread.start()
        assert entered.wait(10.0)
        # Free the slot shortly; the client should shed, back off at least
        # the server's hinted delay, then succeed on a retry.
        releaser = threading.Timer(0.1, gate.set)
        releaser.start()
        try:
            assert stub.get_balance() == 0.0
            retry: RetryBackoff = stub.cactus_client.micro_protocol("RetryBackoff")
            assert retry.stats().get("shed_backoffs", 0) >= 1
        finally:
            gate.set()
            releaser.cancel()
            thread.join(10.0)

    def test_rejection_carries_positive_retry_after(self, deployment):
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(
                    max_rate=0.001, burst=0.5, exempt_high_priority=False
                )
            ],
        )
        stub = deployment.client_stub("acct", bank_interface())
        with pytest.raises(AdmissionRejectedError) as excinfo:
            stub.get_balance()
        # The hint survives the wire (rehydrated from the message text).
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0


class TestPerClassShedding:
    def test_low_class_sheds_first(self, deployment):
        def policy(request):
            return HIGH_PRIORITY if request.client_id == "vip" else LOW_PRIORITY

        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(
                    class_rates={
                        HIGH_PRIORITY_THRESHOLD: (1000.0, 50.0),
                        0: (1e-9, 1e-9),
                    },
                    exempt_high_priority=False,
                )
            ],
            priority_policy=policy,
        )
        vip = deployment.client_stub("acct", bank_interface(), client_id="vip")
        pleb = deployment.client_stub("acct", bank_interface(), client_id="pleb")
        # The high class keeps its reserved throughput...
        for _ in range(5):
            assert vip.get_balance() == 0.0
        # ... while the low class's empty bucket sheds immediately.
        with pytest.raises(AdmissionRejectedError, match="rate budget"):
            pleb.get_balance()


class TestDeadlineAwareShedding:
    def test_doomed_request_shed_before_taking_a_slot(self, deployment):
        class Slow(BankAccount):
            def owner(self):
                time.sleep(0.1)
                return super().owner()

        admission = AdmissionControl(exempt_high_priority=False)
        deployment.add_replicas(
            "acct",
            Slow,
            bank_interface(),
            server_micro_protocols=lambda: [admission],
        )
        warm = deployment.client_stub("acct", bank_interface())
        warm.owner()  # service-time EWMA learns ~0.1s
        assert admission.service_time_ewma() > 0.05
        doomed = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DeadlineBudget(budget=0.01)],
        )
        # Remaining budget (~10ms) < observed EWMA (~100ms): shed up front.
        with pytest.raises(AdmissionRejectedError, match="deadline budget"):
            doomed.owner()
        assert admission.stats().get("shed_deadline", 0) >= 1
        # The shed consumed no slot and charged no service-time sample.
        assert admission.in_flight() == 0

    def test_sheds_decay_inflated_ewma_until_probe_admitted(self, deployment):
        """Regression: the service-time EWMA only refreshes from *admitted*
        requests, so an estimate inflated past every client's budget during
        a surge would shed deadline-carrying traffic forever.  Each
        deadline shed must decay the estimate until a probe gets through
        and re-measures the (now recovered) server."""

        class Moody(BankAccount):
            slow = True

            def owner(self):
                if Moody.slow:
                    time.sleep(0.12)
                return super().owner()

        admission = AdmissionControl(exempt_high_priority=False)
        deployment.add_replicas(
            "acct",
            Moody,
            bank_interface(),
            server_micro_protocols=lambda: [admission],
        )
        warm = deployment.client_stub("acct", bank_interface())
        warm.owner()  # EWMA learns ~0.12s — above the budget below
        inflated = admission.service_time_ewma()
        assert inflated > 0.1
        Moody.slow = False  # the overload drained; the server is fast again
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DeadlineBudget(budget=0.05)],
        )
        sheds = 0
        for _ in range(200):
            try:
                assert stub.owner() == "alice"
                break
            except AdmissionRejectedError:
                sheds += 1
        else:
            pytest.fail("admission never recovered from the inflated EWMA")
        assert sheds >= 1  # the stale estimate did shed at first...
        assert admission.service_time_ewma() < inflated  # ...then re-learned


class TestLateReplyRejected:
    def test_success_past_deadline_becomes_failure(self, deployment):
        class Slow(BankAccount):
            def owner(self):
                time.sleep(0.15)
                return super().owner()

        # No server-side shedding: the servant happily serves a late reply;
        # the client-side budget must refuse to deliver it.
        deployment.add_replicas("acct", Slow, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [DeadlineBudget(budget=0.05)],
        )
        with pytest.raises(DeadlineExceededError, match="after its deadline"):
            stub.owner()


class DeadlineAuditor(MicroProtocol):
    """Counts replies *delivered* past their PB_DEADLINE, judged at delivery
    time on the runtime clock.

    Bound LAST on ``invokeSuccess``: ``DeadlineBudget.reject_late`` (FIRST)
    halts expired replies, so anything the auditor still sees is on its way
    to the caller.
    """

    name = "DeadlineAuditor"

    def start(self):
        self.bind(EV_INVOKE_SUCCESS, self.audit, order=ORDER_LAST)

    def audit(self, occurrence):
        request = occurrence.args[0]
        self.incr("delivered")
        if request.deadline_expired(self.composite.runtime.clock.now()):
            self.incr("late_served")


class TestNoReplyPastDeadline:
    SERVICE_S = 0.03
    BUDGET_S = 0.075
    CALLERS = 6

    def test_burst_against_serialized_servant_delivers_nothing_late(self, deployment):
        """Six callers hit a one-at-a-time 30 ms servant at once with 75 ms
        budgets: two replies make it, the rest come back late or are shed,
        and not one late reply is delivered as a success."""
        service_s = self.SERVICE_S

        class Serialized(BankAccount):
            backend = threading.Lock()

            def owner(self):
                with self.backend:
                    time.sleep(service_s)
                return super().owner()

        deployment.add_replicas(
            "acct",
            Serialized,
            bank_interface(),
            server_micro_protocols=lambda: [DeadlineShed()],
        )
        auditors = [DeadlineAuditor() for _ in range(self.CALLERS)]
        stubs = [
            deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda auditor=auditor: [
                    DeadlineBudget(budget=self.BUDGET_S),
                    auditor,
                ],
            )
            for auditor in auditors
        ]
        barrier = threading.Barrier(self.CALLERS)
        outcomes = []

        def call(stub):
            barrier.wait(10.0)
            for _ in range(2):  # the second wave meets an already-late queue
                try:
                    outcomes.append(stub.owner())
                except DeadlineExceededError as exc:
                    outcomes.append(exc)

        callers = [threading.Thread(target=call, args=(stub,)) for stub in stubs]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(10.0)
        assert not any(caller.is_alive() for caller in callers)

        stats = [auditor.stats() for auditor in auditors]
        assert sum(s.get("late_served", 0) for s in stats) == 0
        # The burst did exercise both sides of the deadline.
        delivered = sum(s.get("delivered", 0) for s in stats)
        assert delivered == outcomes.count("alice") >= 1
        assert any(isinstance(o, DeadlineExceededError) for o in outcomes)


class _CrashMidInvoke(MicroProtocol):
    """Chaos helper: the transport dies after admission, before dispatch."""

    name = "CrashMidInvoke"

    def __init__(self, crashes: int):
        super().__init__()
        self.remaining = crashes

    def start(self):
        self.bind(EV_READY_TO_INVOKE, self.maybe_crash, order=ORDER_EARLY)

    def maybe_crash(self, occurrence):
        from repro.util.errors import CommunicationError

        with self.shared.lock:
            if self.remaining <= 0:
                return
            self.remaining -= 1
        raise CommunicationError("transport crashed mid-invoke (injected)")


class TestSlotReleaseUnderFaults:
    """Satellite regression: a fault between admission and invokeReturn
    must release the concurrency slot (historically it leaked, and the
    server rejected everything forever after max_concurrent faults)."""

    def test_faulted_requests_release_their_slots(self):
        network = ChaosNetwork(InMemoryNetwork())
        deployment = CqosDeployment(
            network, platform="rmi", compiled=bank_compiled(), request_timeout=10.0
        )
        admission = AdmissionControl(max_concurrent=1, exempt_high_priority=False)
        try:
            deployment.add_replicas(
                "acct",
                BankAccount,
                bank_interface(),
                server_micro_protocols=lambda: [admission, _CrashMidInvoke(crashes=3)],
            )
            stub = deployment.client_stub("acct", bank_interface())
            for _ in range(3):
                with pytest.raises(Exception):
                    stub.get_balance()
                # The faulted request freed its slot on the way out.
                assert admission.in_flight() == 0
            # With max_concurrent=1, a single leaked slot would shed this:
            assert stub.get_balance() == 0.0
            assert admission.stats().get("shed_concurrency", 0) == 0
        finally:
            deployment.close()
