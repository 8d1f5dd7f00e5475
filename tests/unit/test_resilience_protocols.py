"""Unit tests for the resilience micro-protocol suite.

Drives the protocols through a real CactusClient pipeline against a
scripted fake platform, so retries, breaker transitions, deadline sheds and
stale serves are observed end-to-end through the event space rather than by
poking handlers directly.
"""

import time

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.cactus.events import ORDER_LAST
from repro.core.client import CactusClient
from repro.core.events import EV_NEW_SERVER_REQUEST
from repro.core.interfaces import ClientPlatform
from repro.core.request import Request
from repro.qos import (
    CircuitBreaker,
    ClientBase,
    DeadlineBudget,
    DeadlineShed,
    Degrade,
    Retransmit,
    RetryBackoff,
    Stale,
    validate_configuration,
)
from repro.qos.extensions.caching import ClientCache
from repro.qos.fault_tolerance.degrade import ATTR_STALE
from repro.util.errors import (
    CircuitOpenError,
    CommunicationError,
    ConfigurationError,
    DeadlineExceededError,
    InvocationError,
    ServerFailedError,
    TimeoutError_,
    is_retryable,
    rehydrate_system_error,
)


class FakePlatform(ClientPlatform):
    """A scripted platform: each invoke pops the next outcome.

    Outcomes are values (returned) or exceptions (raised).  An exhausted
    script keeps returning ``default``.
    """

    def __init__(self, script=(), default="fallback", servers=1):
        self.script = list(script)
        self.default = default
        self.servers = servers
        self.calls = 0
        self.bind_calls = []
        self.running = {}

    def num_servers(self):
        return self.servers

    def bind(self, server):
        self.bind_calls.append(server)
        self.running[server] = True  # bind clears failure knowledge

    def server_status(self, server):
        return self.running.get(server, True)

    def invoke_server(self, server, request):
        self.calls += 1
        outcome = self.script.pop(0) if self.script else self.default
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome


def make_client(platform, protocols):
    return CactusClient(
        platform, protocols + [ClientBase()], request_timeout=10.0
    )


def call(client, operation="op", params=None):
    request = Request("obj", operation, params if params is not None else [1])
    return request, client.cactus_request(request)


class TestErrorClassification:
    def test_is_retryable(self):
        assert is_retryable(CommunicationError("lost"))
        assert is_retryable(TimeoutError_("slow"))
        assert not is_retryable(ServerFailedError("crashed"))
        assert not is_retryable(DeadlineExceededError("late"))
        assert not is_retryable(CircuitOpenError("open"))
        assert not is_retryable(ValueError("app"))
        assert not is_retryable(None)

    def test_rehydrate_allowlisted_error(self):
        exc = rehydrate_system_error("DeadlineExceededError", "shed")
        assert isinstance(exc, DeadlineExceededError)
        assert "shed" in str(exc)

    def test_rehydrate_unknown_stays_invocation_error(self):
        exc = rehydrate_system_error("KeyError", "nope")
        assert isinstance(exc, InvocationError)

    def test_retransmit_delegates_to_classification(self):
        assert Retransmit._is_transient(CommunicationError("lost"))
        assert not Retransmit._is_transient(ServerFailedError("crashed"))
        assert not Retransmit._is_transient(DeadlineExceededError("late"))
        assert not Retransmit._is_transient(CircuitOpenError("open"))

    def test_retry_protocols_mutually_exclusive(self):
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            validate_configuration(["Retransmit", "RetryBackoff"], [])


class TestRetryBackoff:
    def test_retries_until_success(self):
        platform = FakePlatform(
            [CommunicationError("a"), CommunicationError("b"), "value"]
        )
        retry = RetryBackoff(max_attempts=5, base_delay=0.0, jitter=False)
        client = make_client(platform, [retry])
        request, result = call(client)
        assert result == "value"
        assert platform.calls == 3
        assert request.attempt == 3
        assert retry.stats()["retries"] == 2

    def test_gives_up_after_max_attempts(self):
        platform = FakePlatform([CommunicationError("x")] * 10)
        retry = RetryBackoff(max_attempts=3, base_delay=0.0, jitter=False)
        client = make_client(platform, [retry])
        with pytest.raises(CommunicationError):
            call(client)
        assert platform.calls == 3
        assert retry.stats()["give_ups"] == 1

    def test_fatal_errors_not_retried(self):
        platform = FakePlatform([ServerFailedError("crashed")])
        retry = RetryBackoff(max_attempts=5, base_delay=0.0, jitter=False)
        client = make_client(platform, [retry])
        with pytest.raises(ServerFailedError):
            call(client)
        assert platform.calls == 1
        assert "retries" not in retry.stats()

    def test_retry_budget_bounds_amplification(self):
        platform = FakePlatform([CommunicationError("x")] * 50)
        retry = RetryBackoff(
            max_attempts=10,
            base_delay=0.0,
            jitter=False,
            retry_budget=2.0,
            budget_refill=0.0,
        )
        client = make_client(platform, [retry])
        with pytest.raises(CommunicationError):
            call(client)
        assert platform.calls == 3  # first try + the 2 budgeted retries
        assert retry.stats()["budget_exhausted"] == 1
        assert retry.remaining_budget == 0.0

    def test_successes_refill_the_budget(self):
        platform = FakePlatform(
            [CommunicationError("x"), "ok"], default="ok"
        )
        retry = RetryBackoff(
            max_attempts=10,
            base_delay=0.0,
            jitter=False,
            retry_budget=5.0,
            budget_refill=0.5,
        )
        client = make_client(platform, [retry])
        call(client)  # one retry spends a token, the success refills 0.5
        assert retry.remaining_budget == pytest.approx(4.5)

    def test_abandons_when_deadline_cannot_be_met(self):
        platform = FakePlatform([CommunicationError("x")] * 10)
        retry = RetryBackoff(max_attempts=10, base_delay=0.2, jitter=False)
        client = make_client(platform, [retry])
        request = Request("obj", "op", [1])
        request.deadline = client.runtime.clock.now() + 0.05  # < base_delay
        with pytest.raises(CommunicationError):
            client.cactus_request(request)
        assert platform.calls == 1
        assert retry.stats()["deadline_abandoned"] == 1

    def test_exponential_backoff_without_jitter(self):
        retry = RetryBackoff(max_attempts=6, base_delay=0.1, max_delay=0.5, jitter=False)
        request = Request("obj", "op", [])
        delays = [retry._next_delay(request, 1, n) for n in (1, 2, 3, 4)]
        assert delays == [0.1, 0.2, 0.4, 0.5]  # doubling, capped

    def test_jittered_backoff_is_seeded(self):
        a = RetryBackoff(seed=99)._next_delay(Request("o", "op", []), 1, 1)
        b = RetryBackoff(seed=99)._next_delay(Request("o", "op", []), 1, 1)
        assert a == b


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        platform = FakePlatform([CommunicationError("x")] * 10)
        breaker = CircuitBreaker(failure_threshold=3, open_duration=30.0)
        client = make_client(platform, [breaker])
        for _ in range(3):
            with pytest.raises(CommunicationError):
                call(client)
        assert breaker.state(1) == "open"
        assert breaker.stats()["trips"] == 1
        # While open the platform is never touched: fail-fast.
        with pytest.raises(CircuitOpenError):
            call(client)
        assert platform.calls == 3
        assert breaker.stats()["rejected"] == 1

    def test_successes_reset_the_consecutive_count(self):
        platform = FakePlatform(
            [CommunicationError("x"), "ok"] * 5, default="ok"
        )
        breaker = CircuitBreaker(failure_threshold=3, open_duration=30.0)
        client = make_client(platform, [breaker])
        for _ in range(5):
            try:
                call(client)
            except CommunicationError:
                pass
        assert breaker.state(1) == "closed"
        assert "trips" not in breaker.stats()

    def test_half_open_probe_recovers_and_rebinds(self):
        # The server "crashes": status False makes sync_invoker fail fast
        # with ServerFailedError before invoking.
        platform = FakePlatform(default="ok")
        platform.running[1] = False
        breaker = CircuitBreaker(failure_threshold=2, open_duration=0.05)
        client = make_client(platform, [breaker])
        for _ in range(2):
            with pytest.raises(ServerFailedError):
                call(client)
        assert breaker.state(1) == "open"
        time.sleep(0.06)
        # The probe's explicit bind() clears the failure mark (the paper's
        # rebind-after-recovery path), so the invocation goes through.
        _, result = call(client)
        assert result == "ok"
        assert breaker.state(1) == "closed"
        stats = breaker.stats()
        assert stats["probes"] == 1 and stats["recoveries"] == 1

    def test_failed_probe_reopens(self):
        platform = FakePlatform([CommunicationError("x")] * 10)
        breaker = CircuitBreaker(failure_threshold=2, open_duration=0.05)
        client = make_client(platform, [breaker])
        for _ in range(2):
            with pytest.raises(CommunicationError):
                call(client)
        time.sleep(0.06)
        with pytest.raises(CommunicationError):
            call(client)  # the probe itself fails
        assert breaker.state(1) == "open"
        assert breaker.stats()["reopens"] == 1
        with pytest.raises(CircuitOpenError):
            call(client)  # and the breaker is firmly shut again

    def test_own_rejections_do_not_count_as_failures(self):
        platform = FakePlatform([CommunicationError("x")] * 10)
        breaker = CircuitBreaker(failure_threshold=2, open_duration=30.0)
        client = make_client(platform, [breaker])
        for _ in range(2):
            with pytest.raises(CommunicationError):
                call(client)
        for _ in range(5):
            with pytest.raises(CircuitOpenError):
                call(client)
        assert breaker.stats()["trips"] == 1

    def test_error_rate_trip(self):
        # Alternating failures never hit a consecutive threshold of 3 but
        # exceed a 50% error rate over the window.
        platform = FakePlatform(
            [CommunicationError("x"), "ok"] * 10, default="ok"
        )
        breaker = CircuitBreaker(
            failure_threshold=100,
            error_rate_threshold=0.5,
            window=4,
            open_duration=30.0,
        )
        client = make_client(platform, [breaker])
        tripped = False
        for _ in range(8):
            try:
                call(client)
            except CircuitOpenError:
                tripped = True
                break
            except CommunicationError:
                pass
        assert tripped
        assert breaker.stats()["trips"] == 1


class TestDeadlineBudget:
    def test_attaches_deadline(self):
        seen = {}

        class Recording(FakePlatform):
            def invoke_server(self, server, request):
                seen["deadline"] = request.deadline
                return super().invoke_server(server, request)

        platform = Recording(default="ok")
        budget = DeadlineBudget(5.0)
        client = make_client(platform, [budget])
        call(client)
        assert seen["deadline"] is not None
        assert seen["deadline"] > client.runtime.clock.now()
        assert budget.stats()["attached"] == 1

    def test_explicit_deadline_wins(self):
        platform = FakePlatform(default="ok")
        client = make_client(platform, [DeadlineBudget(5.0)])
        request = Request("obj", "op", [1])
        explicit = client.runtime.clock.now() + 123.0
        request.deadline = explicit
        client.cactus_request(request)
        assert request.deadline == explicit

    def test_sheds_expired_request_client_side(self):
        platform = FakePlatform(default="ok")
        budget = DeadlineBudget(5.0)
        client = make_client(platform, [budget])
        request = Request("obj", "op", [1])
        request.deadline = client.runtime.clock.now() - 1.0  # already late
        with pytest.raises(DeadlineExceededError):
            client.cactus_request(request)
        assert platform.calls == 0
        assert budget.stats()["client_sheds"] == 1


class TestDeadlineShed:
    def _shed_composite(self, shed):
        composite = CompositeProtocol("server-test")
        invoked = []
        composite.add_micro_protocol(shed)
        composite.bind(
            EV_NEW_SERVER_REQUEST,
            lambda occ: invoked.append(occ.args[0]),
            order=ORDER_LAST,
        )
        return composite, invoked

    def test_sheds_expired_work_before_the_servant(self):
        shed = DeadlineShed()
        composite, invoked = self._shed_composite(shed)
        request = Request("obj", "op", [1])
        request.deadline = composite.runtime.clock.now() - 0.5
        composite.raise_event(EV_NEW_SERVER_REQUEST, request)
        assert not invoked  # halt_all stopped the base pipeline
        with pytest.raises(DeadlineExceededError):
            request.wait(0.1)
        assert shed.stats()["sheds"] == 1

    def test_live_requests_pass_through(self):
        shed = DeadlineShed()
        composite, invoked = self._shed_composite(shed)
        request = Request("obj", "op", [1])
        request.deadline = composite.runtime.clock.now() + 60.0
        composite.raise_event(EV_NEW_SERVER_REQUEST, request)
        assert invoked == [request]
        assert "sheds" not in shed.stats()

    def test_grace_tolerates_slightly_late_requests(self):
        shed = DeadlineShed(grace=60.0)
        composite, invoked = self._shed_composite(shed)
        request = Request("obj", "op", [1])
        request.deadline = composite.runtime.clock.now() - 0.5  # within grace
        composite.raise_event(EV_NEW_SERVER_REQUEST, request)
        assert invoked == [request]


class TestDegrade:
    def test_serves_last_known_good_on_failure(self):
        platform = FakePlatform(["fresh", CommunicationError("down")])
        degrade = Degrade()
        client = make_client(platform, [degrade])
        _, first = call(client)
        assert first == "fresh"
        request, second = call(client)
        assert second == "fresh"  # stale, but served
        assert request.attributes.get(ATTR_STALE) is True
        assert degrade.stats()["stale_serves"] == 1

    def test_wrap_marks_staleness_in_the_return_value(self):
        platform = FakePlatform(["fresh", CommunicationError("down")])
        client = make_client(platform, [Degrade(wrap=True)])
        _, first = call(client)
        assert first == "fresh"  # normal replies are not wrapped
        _, second = call(client)
        assert second == Stale("fresh")
        assert second.stale

    def test_miss_propagates_the_failure(self):
        platform = FakePlatform([CommunicationError("down")])
        degrade = Degrade()
        client = make_client(platform, [degrade])
        with pytest.raises(CommunicationError):
            call(client)
        assert degrade.stats()["misses"] == 1

    def test_operations_filter(self):
        platform = FakePlatform(["v", CommunicationError("down")])
        degrade = Degrade(operations=("read",))
        client = make_client(platform, [degrade])
        call(client, operation="write")
        with pytest.raises(CommunicationError):
            call(client, operation="write")  # writes never degrade
        assert "stale_serves" not in degrade.stats()

    def test_keyed_by_operation_and_params(self):
        platform = FakePlatform(
            ["for-1", CommunicationError("down"), CommunicationError("down")]
        )
        client = make_client(platform, [Degrade()])
        _, first = call(client, params=[1])
        assert first == "for-1"
        _, stale = call(client, params=[1])
        assert stale == "for-1"
        with pytest.raises(CommunicationError):
            call(client, params=[2])  # different params: no known good

    def test_client_cache_as_fallback_source(self):
        # Populate a ClientCache through its own pipeline first ...
        cache = ClientCache(read_operations=("op",))
        warm_platform = FakePlatform(["cached-value"])
        warm_client = make_client(warm_platform, [cache])
        call(warm_client)
        # ... then a fresh Degrade with no records of its own falls back to it.
        platform = FakePlatform([CommunicationError("down")])
        degrade = Degrade(cache=cache)
        client = make_client(platform, [degrade])
        request, value = call(client)
        assert value == "cached-value"
        assert request.attributes.get(ATTR_STALE) is True

    def test_replicated_failure_must_be_terminal(self):
        # With expected_replies=2, a single failed reply is not terminal:
        # the other replica may still answer, so no stale value is served.
        platform = FakePlatform(["v", CommunicationError("down")], servers=2)
        degrade = Degrade(expected_replies=2)
        client = make_client(platform, [degrade])
        call(client)
        with pytest.raises(CommunicationError):
            call(client)
        assert "stale_serves" not in degrade.stats()


class TestComposedPipeline:
    def test_retry_then_degrade(self):
        """Retries absorb transient loss; degradation absorbs the rest."""
        platform = FakePlatform(
            ["good"] + [CommunicationError("x")] * 10
        )
        retry = RetryBackoff(max_attempts=3, base_delay=0.0, jitter=False)
        degrade = Degrade()
        client = make_client(platform, [retry, degrade])
        _, fresh = call(client)
        assert fresh == "good"
        _, stale = call(client)  # 3 attempts all fail, then stale serve
        assert stale == "good"
        assert platform.calls == 4
        assert retry.stats()["retries"] == 2
        assert degrade.stats()["stale_serves"] == 1

    def test_breaker_rejection_feeds_degrade(self):
        platform = FakePlatform(["good"] + [CommunicationError("x")] * 10)
        breaker = CircuitBreaker(failure_threshold=1, open_duration=30.0)
        degrade = Degrade()
        client = make_client(platform, [breaker, degrade])
        call(client)
        _, stale_after_trip = call(client)  # failure trips the breaker, stale serve
        assert stale_after_trip == "good"
        _, rejected_stale = call(client)  # breaker open: rejected, stale serve
        assert rejected_stale == "good"
        assert platform.calls == 2
        assert breaker.stats()["rejected"] == 1
        assert degrade.stats()["stale_serves"] == 2

    def test_protocol_stats_surface_through_the_composite(self):
        platform = FakePlatform([CommunicationError("x")] * 2, default="ok")
        retry = RetryBackoff(max_attempts=5, base_delay=0.0, jitter=False)
        breaker = CircuitBreaker(failure_threshold=50, open_duration=30.0)
        client = make_client(platform, [breaker, retry])
        call(client)
        stats = client.protocol_stats()
        assert stats["RetryBackoff"]["retries"] == 2
        assert "ClientBase" not in stats  # only protocols that counted
