"""Unit tests for Cactus events: binding, ordering, halting, raise modes."""

import threading

import pytest

from repro.cactus.composite import CompositeProtocol
from repro.cactus.events import ORDER_DEFAULT, ORDER_FIRST, ORDER_LAST
from repro.util.concurrency import (
    DEFAULT_PRIORITY,
    current_thread_priority,
    set_thread_priority,
)
from repro.util.errors import ConfigurationError
from tests.oracles.event_reference import ReferenceComposite


@pytest.fixture(params=["compiled", "reference"])
def composite(request):
    """Every test in this module runs against both dispatch executors."""
    comp = (CompositeProtocol if request.param == "compiled" else ReferenceComposite)("test")
    yield comp
    comp.shutdown()
    comp.runtime.shutdown()


class TestBinding:
    def test_handlers_run_in_order(self, composite):
        calls = []
        composite.bind("ev", lambda occ: calls.append("last"), order=ORDER_LAST)
        composite.bind("ev", lambda occ: calls.append("first"), order=ORDER_FIRST)
        composite.bind("ev", lambda occ: calls.append("mid"), order=ORDER_DEFAULT)
        composite.raise_event("ev")
        assert calls == ["first", "mid", "last"]

    def test_equal_order_runs_in_bind_order(self, composite):
        calls = []
        for i in range(4):
            composite.bind("ev", lambda occ, i=i: calls.append(i))
        composite.raise_event("ev")
        assert calls == [0, 1, 2, 3]

    def test_static_args(self, composite):
        calls = []
        composite.bind("ev", lambda occ, tag: calls.append(tag), static_args=("a",))
        composite.bind("ev", lambda occ, tag: calls.append(tag), static_args=("b",))
        composite.raise_event("ev")
        assert calls == ["a", "b"]

    def test_dynamic_args(self, composite):
        seen = []
        composite.bind("ev", lambda occ: seen.append(occ.args))
        composite.raise_event("ev", 1, "two")
        assert seen == [(1, "two")]

    def test_unbind(self, composite):
        calls = []
        binding = composite.bind("ev", lambda occ: calls.append(1))
        composite.raise_event("ev")
        binding.unbind()
        composite.raise_event("ev")
        assert calls == [1]
        binding.unbind()  # idempotent

    def test_multiple_binds_of_same_handler(self, composite):
        calls = []

        def handler(occ, n):
            calls.append(n)

        for n in range(3):
            composite.bind("ev", handler, static_args=(n,))
        composite.raise_event("ev")
        assert calls == [0, 1, 2]

    def test_event_created_on_first_use(self, composite):
        assert sorted(composite._events) == []
        composite.event("lazy")
        assert sorted(composite._events) == ["lazy"]

    def test_invalid_event_name(self, composite):
        with pytest.raises(ConfigurationError):
            composite.raise_event("")


class TestHalt:
    def test_halt_skips_later_orders(self, composite):
        calls = []

        def early(occ):
            calls.append("early")
            occ.halt()

        composite.bind("ev", early, order=10)
        composite.bind("ev", lambda occ: calls.append("late"), order=20)
        composite.raise_event("ev")
        assert calls == ["early"]

    def test_halt_lets_same_order_peers_run(self, composite):
        calls = []

        def halting(occ, n):
            calls.append(n)
            occ.halt()

        composite.bind("ev", halting, order=10, static_args=(1,))
        composite.bind("ev", halting, order=10, static_args=(2,))
        composite.bind("ev", lambda occ: calls.append("base"), order=ORDER_LAST)
        composite.raise_event("ev")
        assert calls == [1, 2]

    def test_halt_all_skips_everything(self, composite):
        calls = []

        def halting(occ):
            calls.append("halter")
            occ.halt_all()

        composite.bind("ev", halting, order=10)
        composite.bind("ev", lambda occ: calls.append("peer"), order=10)
        composite.bind("ev", lambda occ: calls.append("late"), order=20)
        composite.raise_event("ev")
        assert calls == ["halter"]


class TestRaiseModes:
    def test_async_raise_returns_future(self, composite):
        done = threading.Event()
        composite.bind("ev", lambda occ: done.set())
        future = composite.raise_event("ev", mode="async")
        future.result(2.0)
        assert done.is_set()

    def test_async_preserves_raiser_priority(self, composite):
        seen = []
        composite.bind("ev", lambda occ: seen.append(current_thread_priority()))
        set_thread_priority(8)
        try:
            composite.raise_event("ev", mode="async").result(2.0)
        finally:
            set_thread_priority(DEFAULT_PRIORITY)
        assert seen == [8]

    def test_async_explicit_priority(self, composite):
        seen = []
        composite.bind("ev", lambda occ: seen.append(current_thread_priority()))
        composite.raise_event("ev", mode="async", priority=2).result(2.0)
        assert seen == [2]

    def test_delayed_raise_fires(self, composite):
        done = threading.Event()
        composite.bind("tick", lambda occ: done.set())
        composite.raise_event("tick", delay=0.02)
        assert done.wait(2.0)

    def test_unknown_mode_rejected(self, composite):
        with pytest.raises(ConfigurationError):
            composite.raise_event("ev", mode="bogus")

    def test_blocking_raise_runs_in_caller_thread(self, composite):
        seen = []
        composite.bind("ev", lambda occ: seen.append(threading.current_thread()))
        composite.raise_event("ev")
        assert seen == [threading.current_thread()]


class TestHaltState:
    """The occurrence's public halt state stays truthful after the raise."""

    @staticmethod
    def raise_and_capture(composite):
        """Raise ``ev`` once; the occurrence its first handler was given."""
        seen = []
        composite.bind("ev", seen.append, order=ORDER_FIRST)
        composite.raise_event("ev")
        (occurrence,) = seen
        return occurrence

    def test_halt_state_visible_after_raise(self, composite):
        composite.bind("ev", lambda occ: occ.halt(), order=10)
        composite.bind("ev", lambda occ: None, order=20)
        occurrence = self.raise_and_capture(composite)
        assert occurrence.halted
        assert not occurrence.halted_all

    def test_halt_all_state_visible_after_raise(self, composite):
        composite.bind("ev", lambda occ: occ.halt_all(), order=10)
        occurrence = self.raise_and_capture(composite)
        assert occurrence.halted
        assert occurrence.halted_all

    def test_unhalted_raise_reports_clean_state(self, composite):
        composite.bind("ev", lambda occ: None)
        occurrence = self.raise_and_capture(composite)
        assert not occurrence.halted
        assert not occurrence.halted_all

    def test_state_not_cleared_by_later_handlers(self, composite):
        # The executor used to reset halt flags before each handler; the
        # non-halting same-order peer must not wipe the first peer's halt.
        composite.bind("ev", lambda occ: occ.halt(), order=10)
        composite.bind("ev", lambda occ: None, order=10)
        occurrence = self.raise_and_capture(composite)
        assert occurrence.halted


class TestSnapshotVersioning:
    def test_bind_and_unbind_bump_version(self, composite):
        event = composite.event("ev")
        v0 = event.version
        binding = event.bind(lambda occ: None)
        assert event.version == v0 + 1
        binding.unbind()
        assert event.version == v0 + 2

    def test_raise_does_not_bump_version(self, composite):
        event = composite.event("ev")
        event.bind(lambda occ: None)
        version = event.version
        composite.raise_event("ev")
        composite.raise_event("ev")
        assert event.version == version

    def test_bindings_listing_matches_execution_order(self, composite):
        event = composite.event("ev")
        event.bind(lambda occ: None, order=ORDER_LAST)
        event.bind(lambda occ: None, order=ORDER_FIRST)
        event.bind(lambda occ: None, order=ORDER_DEFAULT)
        assert [b.order for b in event.bindings()] == [
            ORDER_FIRST,
            ORDER_DEFAULT,
            ORDER_LAST,
        ]


class TestTracing:
    def test_causal_edges_recorded(self, composite):
        composite.bind("a", lambda occ: composite.raise_event("b"))
        composite.bind("b", lambda occ: composite.raise_event("c"))
        composite.bind("c", lambda occ: None)
        composite.enable_tracing()
        composite.raise_event("a")
        assert composite.trace_edges() == {("a", "b"), ("b", "c")}

    def test_async_edges_attribute_to_raising_event(self, composite):
        done = threading.Event()
        composite.bind("a", lambda occ: composite.raise_event("b", mode="async"))
        composite.bind("b", lambda occ: done.set())
        composite.enable_tracing()
        composite.raise_event("a")
        assert done.wait(2.0)
        assert ("a", "b") in composite.trace_edges()

    def test_tracing_disabled_records_nothing(self, composite):
        composite.bind("a", lambda occ: composite.raise_event("b"))
        composite.bind("b", lambda occ: None)
        composite.raise_event("a")
        assert composite.trace_edges() == set()

    def test_top_level_raise_has_no_edge(self, composite):
        composite.bind("a", lambda occ: None)
        composite.enable_tracing()
        composite.raise_event("a")
        assert composite.trace_edges() == set()
