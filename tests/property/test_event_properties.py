"""Property-based tests for Cactus event-execution invariants.

Every invariant is checked against both the compiled chain and the reference
interpretation loop (``tests/oracles/event_reference.py``) — they must agree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cactus.composite import CompositeProtocol
from tests.oracles.event_reference import ReferenceComposite

orders = st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=12)

both_executors = pytest.mark.parametrize(
    "make_composite", [CompositeProtocol, ReferenceComposite], ids=["compiled", "reference"]
)


@both_executors
@given(orders)
@settings(max_examples=100, deadline=None)
def test_handlers_execute_in_nondecreasing_order(make_composite, order_values):
    """Whatever the bind sequence, execution order is sorted by order."""
    composite = make_composite("prop")
    executed = []
    for order in order_values:
        composite.bind(
            "ev", lambda occ, o: executed.append(o), order=order, static_args=(order,)
        )
    composite.raise_event("ev")
    assert executed == sorted(order_values)
    composite.runtime.shutdown()


@both_executors
@given(orders, st.integers(min_value=0, max_value=100))
@settings(max_examples=100, deadline=None)
def test_halt_suppresses_exactly_later_orders(make_composite, order_values, halt_at):
    """A halting handler at order H runs peers at H, suppresses > H."""
    composite = make_composite("prop")
    executed = []

    def halting(occ):
        executed.append(("halt", halt_at))
        occ.halt()

    for order in order_values:
        composite.bind(
            "ev", lambda occ, o: executed.append(("plain", o)), order=order, static_args=(order,)
        )
    composite.bind("ev", halting, order=halt_at)
    composite.raise_event("ev")

    ran_orders = [o for kind, o in executed if kind == "plain"]
    # Everything strictly before the halter ran; nothing after it did...
    assert ran_orders == [o for o in sorted(order_values) if o <= halt_at]
    composite.runtime.shutdown()


@both_executors
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_unbinding_removes_exactly_that_binding(make_composite, names):
    composite = make_composite("prop")
    executed = []
    bindings = [
        composite.bind("ev", lambda occ, n=n: executed.append(n)) for n in names
    ]
    bindings[0].unbind()
    composite.raise_event("ev")
    assert executed == names[1:]
    composite.runtime.shutdown()


@both_executors
@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=30, deadline=None)
def test_one_activation_per_binding_per_raise(make_composite, bind_count):
    """N bindings of the same handler run exactly N times per raise —
    the mechanism ActiveRep uses for per-replica activations."""
    composite = make_composite("prop")
    activations = []

    def handler(occ, replica):
        activations.append(replica)

    for replica in range(1, bind_count + 1):
        composite.bind("ev", handler, static_args=(replica,))
    composite.raise_event("ev")
    composite.raise_event("ev")
    assert sorted(activations) == sorted(list(range(1, bind_count + 1)) * 2)
    composite.runtime.shutdown()
