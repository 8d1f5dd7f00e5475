"""Unit tests for the chaos transport decorator (deterministic fault injection)."""

import threading

import pytest

from repro.net.chaos import ChaosNetwork, FaultPlan
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.util.errors import CommunicationError

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev deps
    HAVE_HYPOTHESIS = False


def _run_sequence(make_inner, plan: FaultPlan, calls: int = 40) -> list[str]:
    """Drive one client/server pair and record per-call outcomes."""
    net = ChaosNetwork(make_inner(), plan)
    outcomes = []
    try:
        net.host("server").listen("echo", lambda d: b"R:" + d)
        conn = net.host("client").connect("server/echo")
        for i in range(calls):
            payload = b"%d" % i
            try:
                reply = conn.call(payload, timeout=5.0)
            except CommunicationError as exc:
                outcomes.append(f"err:{'reset' if 'reset' in str(exc) else 'lost'}")
            else:
                outcomes.append("ok" if reply == b"R:" + payload else "corrupt")
        conn.close()
    finally:
        net.close()
    return outcomes


class TestFaultPlanValidation:
    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan(loss=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt=-0.1)

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(latency=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(jitter=-0.5)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(schedule=((1.0, "explode", "host"),))
        with pytest.raises(ValueError):
            FaultPlan(schedule=((-1.0, "crash", "host"),))


class TestDeterministicReplay:
    def test_same_seed_replays_identically_in_memory(self):
        plan = FaultPlan(seed=42, loss=0.3, corrupt=0.1, reset=0.05)
        first = _run_sequence(InMemoryNetwork, plan)
        second = _run_sequence(InMemoryNetwork, plan)
        assert first == second
        assert "err:lost" in first  # the plan actually injected something

    def test_same_seed_replays_identically_over_tcp(self):
        plan = FaultPlan(seed=7, loss=0.25, reset=0.1)
        first = _run_sequence(TcpNetwork, plan)
        second = _run_sequence(TcpNetwork, plan)
        assert first == second

    def test_transport_independence(self):
        """The fault stream depends on the plan, not the wire underneath."""
        plan = FaultPlan(seed=11, loss=0.3)
        assert _run_sequence(InMemoryNetwork, plan) == _run_sequence(TcpNetwork, plan)

    def test_different_seeds_differ(self):
        base = dict(loss=0.4, corrupt=0.2)
        a = _run_sequence(InMemoryNetwork, FaultPlan(seed=1, **base), calls=60)
        b = _run_sequence(InMemoryNetwork, FaultPlan(seed=2, **base), calls=60)
        assert a != b

    def test_disabled_knobs_do_not_shift_the_stream(self):
        """Turning a knob off must not change which calls the others hit.

        Each message consumes a fixed number of draws, so the loss decisions
        under (loss, corrupt) match the loss decisions under loss alone.
        """
        with_corrupt = _run_sequence(
            InMemoryNetwork, FaultPlan(seed=5, loss=0.3, corrupt=0.2)
        )
        loss_only = _run_sequence(InMemoryNetwork, FaultPlan(seed=5, loss=0.3))
        paired = list(zip(with_corrupt, loss_only))
        assert all(
            b == "err:lost" if a == "err:lost" else b != "err:lost" for a, b in paired
        )

    if HAVE_HYPOTHESIS:

        @settings(max_examples=10, deadline=None)
        @given(seed=st.integers(min_value=0, max_value=2**31), loss=st.floats(0.0, 0.6))
        def test_replay_property(self, seed, loss):
            plan = FaultPlan(seed=seed, loss=loss, corrupt=0.1)
            assert _run_sequence(InMemoryNetwork, plan, calls=15) == _run_sequence(
                InMemoryNetwork, plan, calls=15
            )


class TestFaultKnobs:
    def test_no_faults_is_transparent(self):
        outcomes = _run_sequence(InMemoryNetwork, FaultPlan(seed=0))
        assert outcomes == ["ok"] * len(outcomes)

    def test_total_loss(self):
        outcomes = _run_sequence(InMemoryNetwork, FaultPlan(seed=0, loss=1.0), calls=5)
        assert outcomes == ["err:lost"] * 5

    def test_corruption_flips_payload_bytes(self):
        outcomes = _run_sequence(
            InMemoryNetwork, FaultPlan(seed=3, corrupt=1.0), calls=10
        )
        assert "corrupt" in outcomes
        assert "err:lost" not in outcomes

    def test_duplicate_delivers_request_twice(self):
        net = ChaosNetwork(InMemoryNetwork(), FaultPlan(seed=0, duplicate=1.0))
        served = []
        try:
            net.host("server").listen("svc", lambda d: served.append(d) or b"ok")
            conn = net.host("client").connect("server/svc")
            assert conn.call(b"x") == b"ok"
        finally:
            net.close()
        assert served == [b"x", b"x"]

    def test_reset_happens_after_execution(self):
        net = ChaosNetwork(InMemoryNetwork(), FaultPlan(seed=0, reset=1.0))
        served = []
        try:
            net.host("server").listen("svc", lambda d: served.append(d) or b"ok")
            conn = net.host("client").connect("server/svc")
            with pytest.raises(CommunicationError, match="reset"):
                conn.call(b"x")
        finally:
            net.close()
        assert served == [b"x"]  # the at-most-once ambiguity: executed, no reply

    def test_latency_delays_delivery(self):
        import time

        net = ChaosNetwork(InMemoryNetwork(), FaultPlan(seed=0, latency=0.05))
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            started = time.monotonic()
            conn.call(b"x")
            # Two messages, 50 ms each way.
            assert time.monotonic() - started >= 0.09
        finally:
            net.close()

    def test_exempt_hosts_skip_faults(self):
        plan = FaultPlan(seed=0, loss=1.0, exempt_hosts=frozenset({"naming"}))
        net = ChaosNetwork(InMemoryNetwork(), plan)
        try:
            net.host("naming").listen("svc", lambda d: d)
            net.host("server").listen("svc", lambda d: d)
            exempt = net.host("client").connect("naming/svc")
            burned = net.host("client").connect("server/svc")
            assert exempt.call(b"x") == b"x"
            with pytest.raises(CommunicationError):
                burned.call(b"x")
        finally:
            net.close()
        assert net.stats()["exempted"] >= 1


class TestInjectionParityApi:
    """ChaosNetwork exposes the InMemoryNetwork injection surface."""

    def test_set_loss_parity(self):
        net = ChaosNetwork(TcpNetwork())
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            assert conn.call(b"a") == b"a"
            net.set_loss(1.0, seed=3)
            with pytest.raises(CommunicationError):
                conn.call(b"b")
            net.set_loss(0.0)
            assert conn.call(b"c") == b"c"
        finally:
            net.close()

    @pytest.mark.parametrize("make_inner", [InMemoryNetwork, TcpNetwork])
    def test_set_loss_seed_restarts_a_live_connections_stream(self, make_inner):
        """After ``set_loss(p, seed=s)`` a connection that already carried
        traffic draws the same faults as one that carried none, as the
        in-memory network's restarted PRNG would."""

        def pattern_after(earlier_calls: int) -> str:
            net = ChaosNetwork(make_inner(), FaultPlan(seed=1))
            try:
                net.host("server").listen("svc", lambda d: d)
                conn = net.host("client").connect("server/svc")
                for _ in range(earlier_calls):
                    assert conn.call(b"a") == b"a"
                net.set_loss(0.5, seed=7)
                outcomes = []
                for _ in range(16):
                    try:
                        conn.call(b"b")
                        outcomes.append(".")
                    except CommunicationError:
                        outcomes.append("L")
                return "".join(outcomes)
            finally:
                net.close()

        fresh = pattern_after(0)
        assert "L" in fresh and "." in fresh
        assert pattern_after(3) == fresh

    def test_partition_and_heal_parity(self):
        net = ChaosNetwork(TcpNetwork())
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            assert conn.call(b"a") == b"a"
            net.partition([["client"], ["server"]])
            with pytest.raises(CommunicationError, match="partition"):
                conn.call(b"b")
            net.heal()
            assert conn.call(b"c") == b"c"
        finally:
            net.close()

    def test_unlisted_hosts_join_group_zero(self):
        net = ChaosNetwork(InMemoryNetwork())
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            net.partition([["client", "server"], ["other"]])
            assert conn.call(b"a") == b"a"
        finally:
            net.close()

    def test_crash_recover_delegate_to_inner(self):
        net = ChaosNetwork(TcpNetwork())
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            assert conn.call(b"a") == b"a"
            net.crash("server")
            with pytest.raises(CommunicationError):
                conn.call(b"b")
            net.recover("server")
            assert conn.call(b"c") == b"c"
        finally:
            net.close()
        stats = net.stats()
        assert stats["crashes"] == 1 and stats["recoveries"] == 1


class TestSchedule:
    def test_scheduled_crash_and_recover(self):
        plan = FaultPlan(
            seed=0,
            schedule=((0.0, "crash", "server"), (0.15, "recover", "server")),
        )
        net = ChaosNetwork(InMemoryNetwork(), plan)
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            net.start()
            with pytest.raises(CommunicationError):
                conn.call(b"a")  # the crash event fires before delivery
            deadline = threading.Event()
            deadline.wait(0.2)  # let the recover event come due
            assert conn.call(b"b") == b"b"
        finally:
            net.close()
        stats = net.stats()
        assert stats["crashes"] == 1 and stats["recoveries"] == 1


class TestStats:
    def test_stats_account_for_messages(self):
        net = ChaosNetwork(InMemoryNetwork(), FaultPlan(seed=9, loss=0.5))
        try:
            net.host("server").listen("svc", lambda d: d)
            conn = net.host("client").connect("server/svc")
            for _ in range(30):
                try:
                    conn.call(b"x")
                except CommunicationError:
                    pass
        finally:
            net.close()
        stats = net.stats()
        assert stats["messages"] == 60
        assert stats["lost"] > 0
        assert stats["delivered"] > 0
        net.reset_stats()
        assert net.stats()["messages"] == 0
