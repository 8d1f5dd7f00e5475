"""Unit tests for compiled (typed) CDR marshalling."""

import pytest

from repro.idl.ast import BasicType, NamedType, SequenceType
from repro.idl.compiler import compile_idl
from repro.serialization.cdr import CdrInputStream, CdrOutputStream
from repro.serialization.compiled import SignaturePlan
from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError
from tests.oracles.typed_tree_walk import read_typed, write_typed

IDL = """
struct Pt { double x; double y; };
struct Shape { string name; sequence<Pt> points; };
exception Bad { string why; };
interface T {
  double scale(in double factor, in Shape s);
  void nothing();
  sequence<long> numbers(in long count);
  unsigned long long big(in unsigned long long v);
  octet byte_op(in octet b);
  boolean flag(in boolean f);
};
"""


@pytest.fixture
def compiled():
    return compile_idl(IDL, TypeRegistry())


def marshal_arguments(op, args, compiled):
    return SignaturePlan([param.type for param in op.params], compiled).marshal(args)


def unmarshal_arguments(op, body, compiled):
    return SignaturePlan([param.type for param in op.params], compiled).unmarshal(body)


def marshal_result(op, value, compiled):
    return SignaturePlan([op.return_type], compiled).marshal([value])


def unmarshal_result(op, body, compiled):
    return SignaturePlan([op.return_type], compiled).unmarshal(body)[0]


def roundtrip(idl_type, value, compiled):
    out = CdrOutputStream()
    write_typed(out, idl_type, value, compiled)
    return read_typed(CdrInputStream(out.getvalue()), idl_type, compiled)


class TestTypes:
    @pytest.mark.parametrize(
        "kind,value",
        [
            ("boolean", True),
            ("boolean", False),
            ("octet", 255),
            ("short", -32768),
            ("unsigned short", 65535),
            ("long", -(2**31)),
            ("unsigned long", 2**32 - 1),
            ("long long", 2**63 - 1),
            ("unsigned long long", 2**64 - 1),
            ("double", 3.14),
            ("float", -1.5),
            ("string", "héllo"),
            ("any", {"free": ["form", 1]}),
        ],
    )
    def test_basic_roundtrip(self, compiled, kind, value):
        assert roundtrip(BasicType(kind), value, compiled) == value

    def test_void(self, compiled):
        assert roundtrip(BasicType("void"), None, compiled) is None
        with pytest.raises(MarshalError):
            roundtrip(BasicType("void"), 1, compiled)

    def test_sequence(self, compiled):
        seq = SequenceType(BasicType("long"))
        assert roundtrip(seq, [1, 2, 3], compiled) == [1, 2, 3]
        assert roundtrip(seq, [], compiled) == []

    def test_nested_struct(self, compiled):
        pt_cls = compiled.structs["Pt"]
        shape_cls = compiled.structs["Shape"]
        shape = shape_cls(name="tri", points=[pt_cls(x=0.0, y=0.0), pt_cls(x=1.0, y=2.0)])
        decoded = roundtrip(NamedType("Shape"), shape, compiled)
        assert decoded == shape

    def test_no_type_tags_on_wire(self, compiled):
        """Typed encoding of a double is exactly 8 bytes: no tag overhead."""
        out = CdrOutputStream()
        write_typed(out, BasicType("double"), 1.0, compiled)
        assert len(out.getvalue()) == 8

    def test_type_errors_at_sender(self, compiled):
        with pytest.raises(MarshalError):
            roundtrip(BasicType("long"), "not an int", compiled)
        with pytest.raises(MarshalError):
            roundtrip(BasicType("long"), 2**40, compiled)  # out of range
        with pytest.raises(MarshalError):
            roundtrip(BasicType("boolean"), 1, compiled)  # int is not bool
        with pytest.raises(MarshalError):
            roundtrip(SequenceType(BasicType("long")), "xy", compiled)

    def test_wrong_struct_class(self, compiled):
        with pytest.raises(MarshalError):
            roundtrip(NamedType("Pt"), {"x": 1.0, "y": 2.0}, compiled)


class TestOperationHelpers:
    def test_arguments_roundtrip(self, compiled):
        op = compiled.interface("T").operation("scale")
        pt = compiled.structs["Pt"](x=1.0, y=2.0)
        shape = compiled.structs["Shape"](name="s", points=[pt])
        blob = marshal_arguments(op, [2.0, shape], compiled)
        assert unmarshal_arguments(op, blob, compiled) == [2.0, shape]

    def test_arity_checked(self, compiled):
        op = compiled.interface("T").operation("scale")
        with pytest.raises(MarshalError, match="takes 2"):
            marshal_arguments(op, [1.0], compiled)

    def test_result_roundtrip(self, compiled):
        op = compiled.interface("T").operation("numbers")
        blob = marshal_result(op, [5, 6, 7], compiled)
        assert unmarshal_result(op, blob, compiled) == [5, 6, 7]

    def test_void_result(self, compiled):
        op = compiled.interface("T").operation("nothing")
        blob = marshal_result(op, None, compiled)
        assert blob == b""
        assert unmarshal_result(op, blob, compiled) is None


class TestPlansMatchTheTreeWalk:
    """``SignaturePlan`` against the per-value oracle: same bytes, same values."""

    def cases(self, compiled):
        pt = compiled.structs["Pt"]
        shape = compiled.structs["Shape"](name="tri", points=[pt(x=0.0, y=1.5), pt(x=2, y=-3.0)])
        return [
            ("scale", [2, shape], 7.25),
            ("nothing", [], None),
            ("numbers", [3], [1, -2, 3]),
            ("big", [2**64 - 1], 2**40 + 5),
            ("byte_op", [255], 0),
            ("flag", [True], False),
        ]

    def tree_walk(self, types, values, compiled):
        out = CdrOutputStream()
        for idl_type, value in zip(types, values):
            write_typed(out, idl_type, value, compiled)
        return out.getvalue()

    def test_arguments_and_results(self, compiled):
        for name, args, result in self.cases(compiled):
            op = compiled.interface("T").operation(name)
            types = [param.type for param in op.params]
            body = marshal_arguments(op, args, compiled)
            assert body == self.tree_walk(types, args, compiled), name
            stream = CdrInputStream(body)
            assert unmarshal_arguments(op, body, compiled) == [
                read_typed(stream, idl_type, compiled) for idl_type in types
            ]
            body = marshal_result(op, result, compiled)
            assert body == self.tree_walk([op.return_type], [result], compiled), name
            assert unmarshal_result(op, body, compiled) == read_typed(
                CdrInputStream(body), op.return_type, compiled
            )

    def test_any_member_after_a_fixed_prefix(self):
        compiled = compile_idl(
            "interface A { any pick(in octet slot, in any hint, in sequence<any> rest); };",
            TypeRegistry(),
        )
        op = compiled.interface("A").operation("pick")
        args = [3, {"k": [1.5, None]}, ["x", (True, b"\x00")]]
        types = [param.type for param in op.params]
        body = marshal_arguments(op, args, compiled)
        assert body == self.tree_walk(types, args, compiled)
        assert unmarshal_arguments(op, body, compiled) == args
        for cut in range(len(body)):
            with pytest.raises(MarshalError):
                unmarshal_arguments(op, body[:cut], compiled)


class TestEndToEnd:
    def test_typed_stub_against_dsi_rejected(self):
        """A compiled stub pointed at a DSI servant fails cleanly (real
        CORBA's constraint: DSI cannot decode untagged bodies)."""
        from repro.apps.bank import bank_compiled, bank_interface
        from repro.net.memory import InMemoryNetwork
        from repro.orb import DynamicImplementation, Orb, make_static_stub_class
        from repro.util.errors import InvocationError

        net = InMemoryNetwork()
        compiled = bank_compiled()
        server = Orb(net, "server", compiled).start()
        client = Orb(net, "client", compiled)
        try:

            class Sink(DynamicImplementation):
                def invoke(self, server_request):
                    server_request.set_result(None)

            poa = server.create_poa("p")
            ior = poa.activate_object("sink", Sink())
            stub = make_static_stub_class(bank_interface())(client, ior)
            with pytest.raises(InvocationError, match="dynamic"):
                stub.get_balance()
        finally:
            client.shutdown()
            server.shutdown()
            net.close()
