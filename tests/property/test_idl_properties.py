"""Property-based tests for the IDL pipeline and conformance checking."""

import keyword

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.idl import compile_idl
from repro.idl.lexer import KEYWORDS
from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError

identifiers = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,12}", fullmatch=True).filter(
    lambda s: s not in KEYWORDS and not keyword.iskeyword(s)
)

basic_types = st.sampled_from(
    ["boolean", "octet", "short", "long", "long long", "float", "double", "string", "any"]
)


@given(
    interface_name=identifiers,
    op_names=st.lists(identifiers, min_size=1, max_size=5, unique=True),
    param_types=st.lists(basic_types, min_size=0, max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_generated_interfaces_compile(interface_name, op_names, param_types):
    """Any well-formed interface source compiles into matching metadata."""
    params = ", ".join(f"in {t} p{i}" for i, t in enumerate(param_types))
    operations = "\n".join(f"void {name}({params});" for name in op_names)
    source = f"interface {interface_name} {{ {operations} }};"
    compiled = compile_idl(source, TypeRegistry())
    interface = compiled.interface(interface_name)
    assert set(interface.operations) == set(op_names)
    for op in interface.operations.values():
        assert len(op.params) == len(param_types)


INT_RANGES = {
    "short": (-(2**15), 2**15 - 1),
    "long": (-(2**31), 2**31 - 1),
    "long long": (-(2**63), 2**63 - 1),
}


@given(
    kind=st.sampled_from(sorted(INT_RANGES)),
    value=st.integers(min_value=-(2**80), max_value=2**80),
)
@settings(max_examples=200, deadline=None)
def test_integer_conformance_matches_range(kind, value):
    compiled = compile_idl(f"interface T {{ void f(in {kind} x); }};", TypeRegistry())
    low, high = INT_RANGES[kind]
    try:
        compiled.interface("T").operation("f").check_args([value])
        conforms = True
    except MarshalError:
        conforms = False
    assert conforms == (low <= value <= high)


@given(st.lists(st.integers(min_value=-(2**31), max_value=2**31 - 1), max_size=10))
@settings(max_examples=100, deadline=None)
def test_sequence_conformance(values):
    compiled = compile_idl(
        "interface T { void f(in sequence<long> xs); };", TypeRegistry()
    )
    op = compiled.interface("T").operation("f")
    op.check_args([values])
    with pytest.raises(MarshalError):
        op.check_args([values + ["not an int"]])


@given(st.text(max_size=30), st.floats(allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_struct_members_roundtrip_through_both_codecs(label, amount):
    registry = TypeRegistry()
    compiled = compile_idl(
        "struct Rec { string label; double amount; };", registry
    )
    rec = compiled.structs["Rec"](label=label, amount=amount)
    from repro.serialization.cdr import cdr_dumps, cdr_loads
    from repro.serialization.jser import jser_dumps, jser_loads

    assert cdr_loads(cdr_dumps(rec, registry), registry) == rec
    assert jser_loads(jser_dumps(rec, registry), registry) == rec
