"""Unit tests for the wire value-type registry."""

import pytest

from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError


class TestTypeRegistry:
    def test_default_conversions(self):
        registry = TypeRegistry()

        class Pair:
            def __init__(self, a, b):
                self.a, self.b = a, b

        registry.register("t.Pair", Pair)
        name, state = registry.encode(Pair(1, 2))
        assert name == "t.Pair"
        assert state == {"a": 1, "b": 2}
        rebuilt = registry.decode(name, state)
        assert isinstance(rebuilt, Pair)
        assert (rebuilt.a, rebuilt.b) == (1, 2)

    def test_custom_conversions(self):
        registry = TypeRegistry()

        class Celsius:
            def __init__(self, degrees):
                self.degrees = degrees

        registry.register(
            "t.Celsius",
            Celsius,
            to_dict=lambda c: {"kelvin": c.degrees + 273.15},
            from_dict=lambda s: Celsius(s["kelvin"] - 273.15),
        )
        name, state = registry.encode(Celsius(20.0))
        assert state == {"kelvin": 293.15}
        assert registry.decode(name, state).degrees == pytest.approx(20.0)

    def test_encode_unregistered(self):
        with pytest.raises(MarshalError):
            TypeRegistry().encode(object())

    def test_decode_unknown_name(self):
        with pytest.raises(MarshalError):
            TypeRegistry().decode("no.Such", {})

    def test_reregistration_replaces(self):
        registry = TypeRegistry()

        class V1:
            pass

        class V2:
            pass

        registry.register("t.V", V1)
        registry.register("t.V", V2)
        assert registry.name_for(V2()) == "t.V"
        assert registry.name_for(V1()) is None

    def test_to_dict_must_return_dict(self):
        registry = TypeRegistry()

        class Bad:
            pass

        registry.register("t.Bad", Bad, to_dict=lambda o: "not a dict")
        with pytest.raises(MarshalError, match="must return a dict"):
            registry.encode(Bad())
