"""The compiled event-dispatch chain vs. the reference interpretation loop
(``tests/oracles/event_reference.py``).

Three families of coverage:

- **differential testing**: randomized binding sets (orders, ties, halts,
  halt_alls, unbinds-from-inside-handlers, nested raises) executed through
  the reference loop and the compiled chain, raised by name and through
  ``event.raise_blocking``, must produce identical handler sequences,
  causal-trace edges and raise counts;
- **snapshot consistency**: a raise in flight observes one point-in-time
  binding set on both executors, even while other threads bind/unbind;
- **mechanics**: a stashed occurrence stays truthful, one Python frame per
  raise, async and delayed raises keep the parent they were raised under,
  and chain recompilation across dynamic reconfiguration.
"""

import random
import sys
import threading

import pytest

from repro.cactus import events
from repro.cactus.composite import CompositeProtocol, MicroProtocol
from tests.oracles.event_reference import ReferenceComposite

both_executors = pytest.mark.parametrize(
    "compiled", [True, False], ids=["compiled", "reference"]
)


def make_composite(compiled):
    return (CompositeProtocol if compiled else ReferenceComposite)("fastpath")


# -- differential testing ----------------------------------------------------

ACTIONS = ("none", "none", "none", "halt", "halt_all", "unbind_self", "unbind_other", "nested", "nested_self")


def random_script(rng, size):
    """One randomized binding set: per handler an order and a side effect."""
    return [
        {
            "order": rng.randrange(0, 101),
            "action": rng.choice(ACTIONS),
            "target": rng.randrange(size),
        }
        for _ in range(size)
    ]


def run_script(script, compiled, resolved=False):
    """Execute a script; return (handler log, trace edges, raise counts).

    ``resolved`` raises through ``event.raise_blocking(...)`` on events
    looked up once, the way the base micro-protocols do; otherwise through
    ``raise_event(name, ...)``.
    """
    composite = make_composite(compiled)
    log = []
    bindings = []
    if resolved:
        events = {name: composite.event(name) for name in ("ev", "inner")}

        def raise_(name, *args):
            events[name].raise_blocking(*args)
    else:
        raise_ = composite.raise_event

    def make_handler(index, spec):
        def handler(occurrence):
            log.append(("run", index, occurrence.args[0]))
            action = spec["action"]
            if action == "halt":
                occurrence.halt()
            elif action == "halt_all":
                occurrence.halt_all()
            elif action == "unbind_self":
                bindings[index].unbind()
            elif action == "unbind_other":
                bindings[spec["target"]].unbind()
            elif action == "nested":
                raise_("inner", occurrence.args[0])
            elif action == "nested_self" and occurrence.args[0] < 2:
                raise_("ev", occurrence.args[0] + 1)

        return handler

    for index, spec in enumerate(script):
        bindings.append(
            composite.bind("ev", make_handler(index, spec), order=spec["order"])
        )
    composite.bind("inner", lambda occ: log.append(("inner", occ.args[0])))
    composite.enable_tracing()
    try:
        raise_("ev", 0)
        return list(log), composite.trace_edges(), composite.event_stats()
    finally:
        composite.shutdown()
        composite.runtime.shutdown()


@pytest.mark.parametrize("seed", range(60))
def test_differential_random_binding_sets(seed):
    """Compiled and reference executors agree on every randomized script,
    raised by name and through resolved events: same handler sequence,
    same trace edges, same ``raise_count`` per event."""
    rng = random.Random(seed)
    script = random_script(rng, rng.randrange(1, 10))
    reference = run_script(script, compiled=False)
    assert run_script(script, compiled=True) == reference
    assert run_script(script, compiled=True, resolved=True) == reference
    assert run_script(script, compiled=False, resolved=True) == reference


# -- snapshot consistency under concurrency ----------------------------------


@both_executors
def test_inflight_raise_sees_point_in_time_snapshot(compiled):
    """Binds/unbinds racing an in-flight raise do not leak into it."""
    composite = make_composite(compiled)
    try:
        in_handler = threading.Event()
        release = threading.Event()
        ran = []

        def first(occurrence):
            ran.append("first")
            in_handler.set()
            assert release.wait(5.0)

        late_binding = composite.bind("ev", lambda occ: ran.append("late"), order=50)
        composite.bind("ev", first, order=10)
        raiser = threading.Thread(target=composite.raise_event, args=("ev",))
        raiser.start()
        assert in_handler.wait(5.0)
        # The raise is parked inside its first handler.  A binding added
        # now must not run in this raise; one removed now must not either
        # (both executors re-check liveness per activation).
        composite.bind("ev", lambda occ: ran.append("new"), order=60)
        late_binding.unbind()
        release.set()
        raiser.join(5.0)
        assert not raiser.is_alive()
        assert ran == ["first"]
        # The next raise observes the post-mutation set.
        ran.clear()
        composite.raise_event("ev")
        assert ran == ["first", "new"]
    finally:
        release.set()
        composite.shutdown()
        composite.runtime.shutdown()


@both_executors
def test_concurrent_bind_unbind_stress(compiled):
    """Raises stay well-ordered while other threads churn the binding set."""
    composite = make_composite(compiled)
    try:
        stop = threading.Event()
        failures = []
        barrier = threading.Barrier(3)

        def churn(seed):
            rng = random.Random(seed)
            mine = []
            barrier.wait(5.0)
            while not stop.is_set():
                order = rng.randrange(0, 101)
                mine.append(
                    composite.bind(
                        "ev",
                        lambda occ, o: occ.args[0].append(o),
                        order=order,
                        static_args=(order,),
                    )
                )
                if len(mine) > 8:
                    mine.pop(rng.randrange(len(mine))).unbind()
            for binding in mine:
                binding.unbind()

        workers = [threading.Thread(target=churn, args=(s,)) for s in (1, 2)]
        for worker in workers:
            worker.start()
        barrier.wait(5.0)
        for _ in range(300):
            sink = []
            composite.raise_event("ev", sink)
            if sink != sorted(sink):
                failures.append(sink)
        stop.set()
        for worker in workers:
            worker.join(5.0)
        assert failures == []
    finally:
        stop.set()
        composite.shutdown()
        composite.runtime.shutdown()


# -- stashed occurrences -----------------------------------------------------


class TestStashedOccurrence:
    """Every raise makes its own occurrence: one a handler keeps stays true."""

    def test_kept_occurrence_survives_later_raises(self):
        composite = make_composite(True)
        try:
            stash = []

            def keep_and_halt(occurrence):
                stash.append(occurrence)
                if occurrence.args[0] == "payload":
                    occurrence.halt()

            composite.bind("ev", keep_and_halt)
            composite.bind("outer", lambda occ: composite.raise_event("ev", "payload"))
            composite.raise_event("outer")
            first = stash[0]

            def unchanged():
                return (
                    first.args == ("payload",)
                    and first.halted
                    and not first.halted_all
                    and first.parent_event == "outer"
                    and first.event is composite.event("ev")
                )

            assert unchanged()  # after its own raise
            composite.event("ev").raise_blocking("other")
            assert unchanged()  # and after the next one
            assert stash[1] is not first
            assert stash[1].args == ("other",)
            assert not stash[1].halted and stash[1].parent_event is None
        finally:
            composite.runtime.shutdown()

    def test_async_raises_get_their_own_occurrence(self):
        composite = make_composite(True)
        try:
            composite.bind("ev", lambda occ: None)
            first = composite.raise_event("ev", "a", mode="async").result(2.0)
            second = composite.raise_event("ev", "b", mode="async").result(2.0)
            assert first is not second
            assert first.args == ("a",)
            assert second.args == ("b",)
        finally:
            composite.runtime.shutdown()


# -- one frame per raise -----------------------------------------------------


def frames_in_events_module(run) -> list[str]:
    """Enter ``run()`` under a profile hook; the names of the Python frames
    it entered in ``cactus/events.py``, in order.  Counted, not timed."""
    seen = []

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == events.__file__:
            seen.append(frame.f_code.co_qualname)

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_a_blocking_raise_enters_one_frame():
    """The executor is the entry: a raise nobody handles is one frame and
    allocates no occurrence; a handled one adds only its occurrence."""
    composite = make_composite(True)
    try:
        handled, idle = composite.event("handled"), composite.event("idle")
        handled.bind(lambda occ: None)
        handled.raise_blocking(1)  # compile the chains
        idle.raise_blocking(1)
        assert frames_in_events_module(lambda: idle.raise_blocking(1)) == [
            "Event.raise_blocking"
        ]
        assert frames_in_events_module(lambda: handled.raise_blocking(1)) == [
            "Event.raise_blocking", "Occurrence.__init__"
        ]
        assert frames_in_events_module(lambda: composite.raise_event("handled", 1)) == [
            "Event.raise_blocking", "Occurrence.__init__"
        ]
        assert idle.raise_blocking(1) is None
    finally:
        composite.runtime.shutdown()


@both_executors
def test_async_and_delayed_raises_keep_their_parent_and_one_edge(compiled):
    """A raise that runs later on the runtime's lane was counted and traced
    when it was raised, and its handlers still see the raising event."""
    composite = make_composite(compiled)
    try:
        parents = {}
        landed = threading.Semaphore(0)
        edges = []
        record_edge = composite._record_edge
        composite._record_edge = lambda parent, child: (
            edges.append((parent, child)), record_edge(parent, child)
        )

        def note(occurrence):
            parents[occurrence.event.name] = occurrence.parent_event
            landed.release()

        def outer(occurrence):
            composite.raise_event("later", mode="async")
            composite.raise_event("delayed", delay=0.01)

        composite.bind("outer", outer)
        composite.bind("later", note)
        composite.bind("delayed", note)
        composite.enable_tracing()
        composite.raise_event("outer")
        assert landed.acquire(timeout=5.0) and landed.acquire(timeout=5.0)
        assert parents == {"later": "outer", "delayed": "outer"}
        assert sorted(edges) == [("outer", "delayed"), ("outer", "later")]
        assert composite.trace_edges() == {("outer", "delayed"), ("outer", "later")}
        assert composite.event_stats() == {"outer": 1, "later": 1, "delayed": 1}
    finally:
        composite.shutdown()
        composite.runtime.shutdown()


# -- dynamic reconfiguration -------------------------------------------------


class Tagger(MicroProtocol):
    def __init__(self, tag, log):
        super().__init__(name=f"tagger-{tag}")
        self._tag = tag
        self._log = log

    def start(self):
        self.bind("ev", lambda occ: self._log.append(self._tag), order=self._tag)


@both_executors
def test_dynamic_reconfiguration_recompiles_chain(compiled):
    """Loading/unloading micro-protocols invalidates the compiled chain."""
    composite = make_composite(compiled)
    try:
        log = []
        composite.add_micro_protocol(Tagger(1, log))
        composite.raise_event("ev")
        composite.add_micro_protocol(Tagger(2, log))
        composite.raise_event("ev")
        composite.remove_micro_protocol("tagger-1")
        composite.raise_event("ev")
        assert log == [1, 1, 2, 2]
    finally:
        composite.shutdown()
        composite.runtime.shutdown()
