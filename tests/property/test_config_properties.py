"""Property-based tests for a configuration's one serialised form: the
``MicroProtocolSpec`` wire form, as the dynamic path ships it."""

from hypothesis import given, settings, strategies as st

from repro.cactus.config import MicroProtocolSpec
from repro.serialization.jser import jser_dumps, jser_loads

names = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,15}", fullmatch=True)
param_keys = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)
param_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=4),
)

specs = st.lists(
    st.builds(
        MicroProtocolSpec,
        name=names,
        params=st.dictionaries(param_keys, param_values, max_size=4),
    ),
    max_size=6,
)


@given(specs)
@settings(max_examples=100, deadline=None)
def test_wire_form_roundtrip(spec_list):
    shipped = jser_loads(jser_dumps([spec.to_wire() for spec in spec_list]))
    rebuilt = [MicroProtocolSpec.from_wire(item) for item in shipped]
    assert rebuilt == spec_list
