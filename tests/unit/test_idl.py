"""Unit tests for the IDL lexer, parser, and compiler."""

import pytest

from repro.idl import compile_idl, parse_idl, tokenize
from repro.idl.ast import BasicType, NamedType, SequenceType
from repro.idl.lexer import IdlSyntaxError
from repro.serialization.registry import TypeRegistry
from repro.util.errors import ConfigurationError, MarshalError


class TestLexer:
    def test_tokens_and_positions(self):
        tokens = tokenize("interface Foo {\n};")
        kinds = [(t.kind, t.value) for t in tokens]
        assert kinds == [
            ("keyword", "interface"),
            ("identifier", "Foo"),
            ("punct", "{"),
            ("punct", "}"),
            ("punct", ";"),
            ("eof", ""),
        ]
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[3].line == 2

    def test_comments_are_skipped(self):
        tokens = tokenize("// line\n/* block\nstill block */ module")
        assert [t.value for t in tokens if t.kind != "eof"] == ["module"]

    def test_scope_operator(self):
        tokens = tokenize("a::b")
        assert [t.value for t in tokens][:3] == ["a", "::", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(IdlSyntaxError, match="unterminated"):
            tokenize("/* never ends")

    def test_bad_character(self):
        with pytest.raises(IdlSyntaxError, match="unexpected character"):
            tokenize("interface $bad {};")


class TestParser:
    def test_full_grammar(self):
        spec = parse_idl(
            """
            module m {
              struct S { long a; sequence<string> b; };
              exception E { string msg; };
              interface I {
                readonly attribute double ro;
                attribute long rw;
                oneway void fire();
                S build(in long x, in S template) raises (E);
              };
              interface J : I { void extra(); };
            };
            """
        )
        module = spec.definitions[0]
        assert module.name == "m"
        interface = module.definitions[2]
        assert interface.name == "I"
        assert [a.name for a in interface.attributes] == ["ro", "rw"]
        assert interface.attributes[0].readonly
        ops = {op.name: op for op in interface.operations}
        assert ops["fire"].oneway
        assert ops["build"].raises == ["E"]
        assert isinstance(ops["build"].params[1].type, NamedType)
        derived = module.definitions[3]
        assert derived.bases == ["I"]

    def test_multi_word_types(self):
        spec = parse_idl(
            "interface T { long long big(in unsigned short a, in unsigned long long b); };"
        )
        op = spec.definitions[0].operations[0]
        assert op.return_type == BasicType("long long")
        assert op.params[0].type == BasicType("unsigned short")
        assert op.params[1].type == BasicType("unsigned long long")

    def test_nested_sequences(self):
        spec = parse_idl("interface T { sequence<sequence<long>> grid(); };")
        rt = spec.definitions[0].operations[0].return_type
        assert rt == SequenceType(SequenceType(BasicType("long")))

    def test_missing_semicolon(self):
        with pytest.raises(IdlSyntaxError):
            parse_idl("interface I { void f() }")

    def test_param_requires_direction(self):
        with pytest.raises(IdlSyntaxError, match="in/out/inout"):
            parse_idl("interface I { void f(long x); };")


class TestCompiler:
    def test_attribute_expansion(self):
        compiled = compile_idl(
            "interface A { readonly attribute double x; attribute string y; };",
            TypeRegistry(),
        )
        ops = compiled.interface("A").operations
        assert set(ops) == {"_get_x", "_get_y", "_set_y"}

    def test_inheritance_flattened(self):
        compiled = compile_idl(
            "interface A { void base(); }; interface B : A { void extra(); };",
            TypeRegistry(),
        )
        assert set(compiled.interface("B").operations) == {"base", "extra"}
        assert compiled.interface("B").bases == ("A",)

    def test_scoped_resolution(self):
        compiled = compile_idl(
            """
            module outer {
              struct S { long v; };
              module inner {
                interface I { S get(); };
              };
            };
            """,
            TypeRegistry(),
        )
        op = compiled.interface("outer::inner::I").operation("get")
        assert op.return_type == NamedType("outer::S")

    def test_unresolved_name(self):
        with pytest.raises(ConfigurationError, match="unresolved"):
            compile_idl("interface I { Missing get(); };", TypeRegistry())

    def test_out_params_rejected(self):
        with pytest.raises(ConfigurationError, match="not supported"):
            compile_idl("interface I { void f(out long x); };", TypeRegistry())

    def test_interface_as_value_rejected(self):
        with pytest.raises(ConfigurationError, match="object references"):
            compile_idl(
                "interface A {}; interface B { void f(in A ref); };", TypeRegistry()
            )

    def test_oneway_must_return_void(self):
        with pytest.raises(ConfigurationError, match="must return void"):
            compile_idl("interface I { oneway long f(); };", TypeRegistry())

    def test_raises_must_name_exception(self):
        with pytest.raises(ConfigurationError, match="non-exception"):
            compile_idl(
                "struct S { long v; }; interface I { void f() raises (S); };",
                TypeRegistry(),
            )

    def test_duplicate_definition(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            compile_idl("struct S { long a; }; struct S { long b; };", TypeRegistry())

    def test_simple_name_lookup_ambiguity(self):
        compiled = compile_idl(
            "module a { interface X {}; }; module b { interface X {}; };",
            TypeRegistry(),
        )
        with pytest.raises(ConfigurationError, match="ambiguous"):
            compiled.interface("X")
        assert compiled.interface("a::X").name == "a::X"


class TestConformance:
    @pytest.fixture
    def compiled(self):
        return compile_idl(
            """
            struct Pt { double x; double y; };
            exception Bad { string why; };
            interface T {
              void take_octet(in octet o);
              void take_short(in short s);
              void take_seq(in sequence<long> xs);
              void take_anys(in sequence<any> xs);
              void take_pt(in Pt p);
              double ret();
            };
            """,
            TypeRegistry(),
        )

    def test_octet_range(self, compiled):
        op = compiled.interface("T").operation("take_octet")
        op.check_args((255,), compiled)
        with pytest.raises(MarshalError):
            op.check_args((256,), compiled)
        with pytest.raises(MarshalError):
            op.check_args((True,), compiled)  # bool is not an octet

    def test_short_range(self, compiled):
        op = compiled.interface("T").operation("take_short")
        op.check_args((-32768,), compiled)
        with pytest.raises(MarshalError):
            op.check_args((40000,), compiled)

    def test_sequence_elements_checked(self, compiled):
        op = compiled.interface("T").operation("take_seq")
        op.check_args(([1, 2, 3],), compiled)
        with pytest.raises(MarshalError):
            op.check_args(([1, "no"],), compiled)

    def test_sequence_of_any_checks_the_container_only(self, compiled, monkeypatch):
        op = compiled.interface("T").operation("take_anys")
        seq_type = op.params[0].type
        with pytest.raises(MarshalError):
            op.check_args(("not a sequence",), compiled)
        calls = []
        conforms = type(compiled).conforms
        monkeypatch.setattr(
            type(compiled), "conforms",
            lambda self, idl_type, value: calls.append(idl_type) or conforms(self, idl_type, value),
        )
        assert compiled.conforms(seq_type, [object(), {"k": 1}] * 32)
        assert compiled.conforms(seq_type, ())
        assert calls == [seq_type, seq_type]  # no visit per element

    def test_struct_instance_checked(self, compiled):
        op = compiled.interface("T").operation("take_pt")
        pt = compiled.structs["Pt"](x=1.0, y=2.0)
        op.check_args((pt,), compiled)
        with pytest.raises(MarshalError):
            op.check_args(({"x": 1.0},), compiled)

    def test_arity_checked(self, compiled):
        op = compiled.interface("T").operation("ret")
        with pytest.raises(MarshalError, match="takes 0"):
            op.check_args((1,), compiled)

    def test_result_checked(self, compiled):
        op = compiled.interface("T").operation("ret")
        op.check_result(1.5, compiled)
        op.check_result(2, compiled)  # int acceptable for double
        with pytest.raises(MarshalError):
            op.check_result("no", compiled)

    def test_exception_class_behaviour(self, compiled):
        bad = compiled.exceptions["Bad"]
        exc = bad(why="reason")
        assert exc == bad(why="reason")
        assert exc != bad(why="other")
        assert "reason" in str(exc)
        with pytest.raises(TypeError):
            bad(nope=1)
