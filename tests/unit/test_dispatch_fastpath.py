"""The compiled event-dispatch chain vs. the reference interpretation loop
(``tests/oracles/event_reference.py``).

Three families of coverage:

- **differential testing**: randomized binding sets (orders, ties, halts,
  halt_alls, unbinds-from-inside-handlers, nested raises) executed through
  the reference loop and the compiled chain must produce identical
  handler sequences and causal-trace edges;
- **snapshot consistency**: a raise in flight observes one point-in-time
  binding set on both executors, even while other threads bind/unbind;
- **mechanics**: occurrence-freelist safety, and chain recompilation across
  dynamic reconfiguration.
"""

import random
import threading

import pytest

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


def run_script(script, compiled):
    """Execute a script; return (handler log, causal trace edges)."""
    composite = make_composite(compiled)
    log = []
    bindings = []

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
                composite.raise_event("inner", occurrence.args[0])
            elif action == "nested_self" and occurrence.args[0] < 2:
                composite.raise_event("ev", occurrence.args[0] + 1)

        return handler

    for index, spec in enumerate(script):
        bindings.append(
            composite.bind("ev", make_handler(index, spec), order=spec["order"])
        )
    composite.bind("inner", lambda occ: log.append(("inner", occ.args[0])))
    composite.enable_tracing()
    try:
        composite.raise_event("ev", 0)
        return list(log), composite.trace_edges()
    finally:
        composite.shutdown()
        composite.runtime.shutdown()


@pytest.mark.parametrize("seed", range(60))
def test_differential_random_binding_sets(seed):
    """Compiled and reference executors agree on every randomized script."""
    rng = random.Random(seed)
    script = random_script(rng, rng.randrange(1, 10))
    compiled_log, compiled_edges = run_script(script, compiled=True)
    reference_log, reference_edges = run_script(script, compiled=False)
    assert compiled_log == reference_log
    assert compiled_edges == reference_edges


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


# -- occurrence freelist -----------------------------------------------------


class TestOccurrenceFreelist:
    def test_blocking_raise_recycles_unreferenced_occurrence(self):
        from repro.cactus.events import _occ_pool

        composite = make_composite(True)
        try:
            seen = []
            composite.bind("ev", lambda occ: seen.append(id(occ)))
            pool = _occ_pool()
            pool.clear()
            composite.raise_event("ev")
            assert len(pool) == 1  # parked, with its references dropped
            assert pool[0].event is None and pool[0].args == ()
            # Keep only the id: holding the object itself would raise its
            # refcount and (correctly) veto recycling it again.
            parked_id = id(pool[0])
            composite.raise_event("ev")
            assert seen[1] == parked_id  # same slab object, reinitialized
            assert [id(occ) for occ in pool] == [parked_id]  # re-parked
        finally:
            composite.runtime.shutdown()

    def test_stashed_occurrence_is_never_recycled(self):
        composite = make_composite(True)
        try:
            stash = []
            composite.bind("ev", stash.append)
            composite.raise_event("ev", "payload")
            composite.raise_event("ev", "other")
            assert stash[0] is not stash[1]
            # The stashed object keeps its state: nothing reset or reused it.
            assert stash[0].args == ("payload",)
            assert stash[0].event is composite.event("ev")
            assert stash[1].args == ("other",)
        finally:
            composite.runtime.shutdown()

    def test_async_occurrences_are_not_recycled(self):
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
