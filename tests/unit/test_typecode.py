"""Unit tests for DII TypeCodes and NVList construction."""

import pytest

from repro.idl.ast import BasicType, NamedType, SequenceType
from repro.idl.compiler import compile_idl
from repro.orb.typecode import typecode_of
from repro.serialization.registry import TypeRegistry


class TestTypecodeOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, BasicType("void")),
            (True, BasicType("boolean")),
            (False, BasicType("boolean")),
            (42, BasicType("long long")),
            (1.5, BasicType("double")),
            ("s", BasicType("string")),
            ([1, 2, 3], SequenceType(BasicType("long long"))),
            ([], SequenceType(BasicType("any"))),
            ([1, "mixed"], SequenceType(BasicType("any"))),
            ({"a": 1}, BasicType("any")),
            (object(), BasicType("any")),
        ],
    )
    def test_derivation(self, value, expected):
        assert typecode_of(value) == expected

    def test_struct_instances_get_named_typecode(self):
        compiled = compile_idl("struct Pt { double x; double y; };", TypeRegistry())
        pt = compiled.structs["Pt"](x=1.0, y=2.0)
        assert typecode_of(pt) == NamedType("Pt")

    def test_nested_sequences(self):
        assert typecode_of([[1], [2]]) == SequenceType(
            SequenceType(BasicType("long long"))
        )


class TestNvList:
    def test_build(self):
        from repro.apps.bank import bank_compiled
        from repro.net.memory import InMemoryNetwork
        from repro.orb.ior import IOR
        from repro.orb.orb import ObjectRef, Orb

        net = InMemoryNetwork()
        orb = Orb(net, "client", bank_compiled())
        try:
            ref = ObjectRef(orb, IOR("IDL:omg.org/CORBA/Object:1.0", "s/giop", "p|o"))
            nvlist = ref._create_request("op").add_arg(1.0).add_arg("two").nvlist()
            assert [nv.name for nv in nvlist] == ["arg0", "arg1"]
            assert nvlist[0].typecode == BasicType("double")
            assert nvlist[1].value == "two"
        finally:
            orb.shutdown()
            net.close()


class TestDiiNvListIntegration:
    def test_dii_request_carries_nvlist(self):
        from repro.apps.bank import bank_compiled, bank_interface
        from repro.net.memory import InMemoryNetwork
        from repro.orb.orb import Orb

        net = InMemoryNetwork()
        orb = Orb(net, "client", bank_compiled())
        try:
            from repro.orb.ior import IOR
            from repro.orb.orb import ObjectRef

            ref = ObjectRef(orb, IOR("IDL:omg.org/CORBA/Object:1.0", "s/giop", "p|o"))
            request = ref._create_request("set_balance").add_arg(5.0)
            [nv] = request.nvlist()
            assert nv.typecode == BasicType("double")
            assert nv.value == 5.0
        finally:
            orb.shutdown()
            net.close()
