"""The flat jser codec against bytes and behaviour captured before it.

Golden vectors come from the parent commit (``tests/oracles/jser_golden.py``),
the tree-walk codec kept in ``tests/oracles/jser_tree_walk.py`` is the
differential oracle, and the error contract is that encoding, decoding and
JRMP frame parsing can only ever fail with :class:`MarshalError`.
"""

import random

import pytest

from repro.apps.bank import bank_compiled
from repro.rmi import jrmp
from repro.serialization.cdr import MAX_DEPTH
from repro.serialization.jser import jser_dumps, jser_loads
from repro.serialization.registry import TypeRegistry
from repro.util.errors import MarshalError
from tests.oracles import jser_golden
from tests.oracles.jser_tree_walk import tree_dumps, tree_loads


class Node:
    def __init__(self, label, peer=None):
        self.label, self.peer = label, peer


class Label(str):
    pass


class Count(int):
    pass


REGISTRY = TypeRegistry()
REGISTRY.register("golden.Node", Node)


def samples() -> dict:
    """The values behind ``jser_golden.VALUES``, rebuilt (aliases, cycles
    and all) on every call."""
    shared = [1, 2]
    cyclic_list = ["head"]
    cyclic_list.append(cyclic_list)
    cyclic_dict = {"name": "d"}
    cyclic_dict["self"] = cyclic_dict
    node = Node("n", peer=[1.5])
    selfish = Node("loop")
    selfish.peer = selfish
    many = [[i] for i in range(130)]
    return {
        "scalars": [None, True, False, 0.0, -0.0, 1.5, float("inf"), "", "hé ✓", b"", b"\x00\xff"],
        "int64_edges": [0, 1, -1, 63, 64, -64, -65, 127, 128, 2**31, -(2**31), 2**63 - 1, -(2**63)],
        "bigints": [2**63, -(2**63) - 1, 2**200, -(2**200)],
        "subclasses": [Label("tag"), Count(7), bytearray(b"ba")],
        "containers": [[], (), {}, [1, [2, [3]]], (1, "two", (3,)), {"a": 1, 2: "b", (1, 2): None}],
        "aliased": [shared, shared, {"k": shared}, (shared,)],
        "cyclic_list": cyclic_list,
        "cyclic_dict": cyclic_dict,
        "value": node,
        "value_aliased": [node, node, node.peer],
        "value_cyclic": selfish,
        "long_str": ["x" * 127, "y" * 128, "é" * 300],
        "long_bytes": b"\x01" * 200,
        "long_list": list(range(130)),
        "long_tuple": tuple(range(128)),
        "long_dict": {i: str(i) for i in range(129)},
        "long_handle": many + [many[129], many[0]],
        "signed_reply": {"__cqos_sig__": bytes(range(32)), "v": {"__cqos_ct__": bytes(range(24))}},
        "encrypted_params": [bytes(range(40))],
        "request_blob": ["acct#1", "set_balance", [1234.5]],
    }


def frames() -> dict:
    """The JRMP messages behind ``jser_golden.FRAMES``."""
    insufficient = bank_compiled().exceptions["bank::InsufficientFunds"]
    context = {"cqos.client": "boss", "cqos.priority": 9, "cqos.sig": bytes(range(32))}
    return {
        "call": jrmp.CallMessage("acct#1", "set_balance", [1234.5], context, False),
        "call_oneway": jrmp.CallMessage("acct#1", "deposit", [1.0, "memo"], {}, True),
        "return": jrmp.ReturnMessage(value={"__cqos_ct__": bytes(range(16))}),
        "throw": jrmp.ReturnMessage(exception=insufficient(reason="short", requested=2.0, available=1.0)),
        "system": jrmp.ReturnMessage(
            system_error={"type": "AccessDeniedError", "message": "no"}
        ),
    }


def encode_frame(message) -> bytes:
    if isinstance(message, jrmp.CallMessage):
        return jrmp.encode_call(message)
    return jrmp.encode_return(message)


class TestGoldenVectors:
    @pytest.mark.parametrize("name", sorted(jser_golden.VALUES))
    def test_value_bytes_unchanged(self, name):
        assert jser_dumps(samples()[name], REGISTRY).hex() == jser_golden.VALUES[name]

    @pytest.mark.parametrize("name", sorted(set(jser_golden.VALUES) - {"value_cyclic"}))
    def test_golden_bytes_decode_and_re_encode(self, name):
        """Decoding keeps every alias and cycle: the decoded value encodes
        to the same bytes, handles included.  (A cycle through an instance
        is the exception, see ``TestAgainstTheTreeWalk``.)"""
        golden = bytes.fromhex(jser_golden.VALUES[name])
        assert jser_dumps(jser_loads(golden, REGISTRY), REGISTRY) == golden

    @pytest.mark.parametrize("name", sorted(jser_golden.FRAMES))
    def test_frame_bytes_unchanged(self, name):
        message = frames()[name]
        golden = bytes.fromhex(jser_golden.FRAMES[name])
        assert encode_frame(message) == golden
        assert jrmp.decode(golden) == message

    def test_every_sample_has_a_vector(self):
        assert set(samples()) == set(jser_golden.VALUES)
        assert set(frames()) == set(jser_golden.FRAMES)

    @pytest.mark.parametrize(
        "golden", [*jser_golden.VALUES.values(), *jser_golden.FRAMES.values()]
    )
    def test_truncation_at_every_offset(self, golden):
        data = bytes.fromhex(golden)
        for cut in range(len(data)):
            with pytest.raises(MarshalError):
                jser_loads(data[:cut], REGISTRY)


def random_value(rng: random.Random, depth: int = 0, pool: list | None = None):
    """A seeded wire value; ``pool`` holds containers to alias."""
    pool = [] if pool is None else pool
    kind = rng.randrange(14 if depth < 4 else 8)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randrange(-200, 200)
    if kind == 3:
        return rng.randrange(-(2**70), 2**70)
    if kind == 4:
        return rng.uniform(-1e9, 1e9)
    if kind == 5:
        return "".join(chr(rng.choice((65, 233, 0x2713, 0x1F600))) for _ in range(rng.randrange(140)))
    if kind == 6:
        return rng.randbytes(rng.randrange(140))
    if kind == 7 and pool:
        return rng.choice(pool)
    if kind in (8, 9):
        made = []
        pool.append(made)
        made.extend(random_value(rng, depth + 1, pool) for _ in range(rng.randrange(5)))
        return made
    if kind == 10:
        return tuple(random_value(rng, depth + 1, pool) for _ in range(rng.randrange(4)))
    if kind == 11:
        made = {}
        pool.append(made)
        for _ in range(rng.randrange(4)):
            made[rng.choice(("k", 1, 2.5, (1, "t"), b"b"))] = random_value(rng, depth + 1, pool)
        return made
    if kind == 12:
        made = Node(f"n{depth}", random_value(rng, depth + 1, pool))
        pool.append(made)  # afterwards: aliased, never inside its own state
        return made
    return [random_value(rng, depth + 1, pool)]


class TestAgainstTheTreeWalk:
    def test_seeded_values_encode_to_the_same_bytes(self):
        rng = random.Random(15)
        for _ in range(400):
            value = random_value(rng)
            encoded = jser_dumps(value, REGISTRY)
            assert encoded == tree_dumps(value, REGISTRY)
            # Same structure out of both decoders, aliases included.
            assert (
                jser_dumps(jser_loads(encoded, REGISTRY), REGISTRY)
                == tree_dumps(tree_loads(encoded, REGISTRY), REGISTRY)
                == encoded
            )

    def test_reference_to_an_instance_from_inside_its_state_is_none(self):
        """The value handle is reserved before the state is read; until the
        instance exists it stands for None (as in the tree walk)."""
        encoded = jser_dumps(samples()["value_cyclic"], REGISTRY)
        assert jser_loads(encoded, REGISTRY).peer is None
        assert tree_loads(encoded, REGISTRY).peer is None

    def test_handles_count_lists_dicts_and_instances_only(self):
        shared = (1, 2)
        # Tuples are written out each time; the dict is handle 1.
        encoded = jser_dumps([shared, shared, {}, {}])
        assert encoded == tree_dumps([shared, shared, {}, {}])
        assert jser_loads(bytes([8, 2, 10, 0, 12, 1]))[1] == {}

    def test_bytearray_and_memoryview_input(self):
        encoded = jser_dumps(["a", b"b", 3])
        assert jser_loads(bytearray(encoded)) == jser_loads(memoryview(encoded)) == ["a", b"b", 3]


def nest(depth: int, leaf=None, wrap=lambda inner: [inner]):
    value = leaf
    for _ in range(depth):
        value = wrap(value)
    return value


class TestErrorContract:
    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(bytes([6, 2, 0xC3, 0x28]), id="str-not-utf8"),
            pytest.param(bytes([4, 2]) + b"1x", id="bigint-not-digits"),
            pytest.param(bytes([4, 1, 0xE9]), id="bigint-not-ascii"),
            pytest.param(bytes([10, 1, 8, 0, 0]), id="list-as-dict-key"),
            pytest.param(bytes([11, 2, 0xC3, 0x28, 10, 0]), id="type-name-not-utf8"),
            pytest.param(bytes([11, 1, 0x41, 10, 0]), id="unknown-value-type"),
            pytest.param(bytes([13]), id="unknown-tag"),
            pytest.param(bytes([255, 0]), id="unknown-tag-with-tail"),
            pytest.param(bytes([12, 0]), id="dangling-reference"),
            pytest.param(bytes([3] + [0x80] * 12), id="varint-too-long"),
            pytest.param(bytes([6, 0x85]), id="varint-cut"),
            pytest.param(bytes([5, 0, 0, 0]), id="float-cut"),
            pytest.param(bytes([7, 9, 1]), id="bytes-cut"),
            pytest.param(b"", id="empty"),
        ],
    )
    def test_corrupt_input_raises_marshal_error(self, data):
        with pytest.raises(MarshalError):
            jser_loads(data, REGISTRY)

    def test_value_state_the_type_rejects(self):
        registry = TypeRegistry()
        registry.register("strict.Node", Node, from_dict=lambda state: Node(**state))
        encoded = bytes([11, 11]) + b"strict.Node" + jser_dumps({"nope": 1})
        with pytest.raises(MarshalError):
            jser_loads(encoded, registry)

    @pytest.mark.parametrize(
        "wrap",
        [
            pytest.param(lambda inner: [inner], id="list"),
            pytest.param(lambda inner: (inner,), id="tuple"),
            pytest.param(lambda inner: {"k": inner}, id="dict"),
        ],
    )
    def test_nesting_is_capped_both_ways(self, wrap):
        deepest = nest(MAX_DEPTH, wrap=wrap)
        encoded = jser_dumps(deepest)
        assert jser_dumps(jser_loads(encoded)) == encoded
        with pytest.raises(MarshalError, match="nested deeper"):
            jser_dumps(wrap(deepest))
        # One container more, as the recursive encoder writes it.
        with pytest.raises(MarshalError, match="nested deeper"):
            jser_loads(tree_dumps(wrap(deepest)))

    def test_a_hundred_thousand_levels_do_not_recurse(self):
        with pytest.raises(MarshalError):
            jser_loads(bytes([8, 1]) * 100_000 + bytes([0]))
        with pytest.raises(MarshalError):
            jser_dumps(nest(100_000))

    def test_encoder_failures_are_marshal_errors(self):
        with pytest.raises(MarshalError):
            jser_dumps("lone \ud800 surrogate")
        with pytest.raises(MarshalError):
            jser_dumps(10**5000)  # past the interpreter's int -> str digit limit
        with pytest.raises(MarshalError, match="register"):
            jser_dumps([object()])

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(("call", "oid", "op", 5, {}, False), id="arguments-not-iterable"),
            pytest.param(("call", "oid", "op", (), 7, False), id="context-not-a-mapping"),
            pytest.param(("call", "oid", "op", (), [1, 2], False), id="context-bad-pairs"),
            pytest.param(("call", "oid", "op", (), "abc", False), id="context-a-string"),
            # The encoder writes a tuple and a dict; a text would decode as
            # its characters, a dict as its keys, pairs as a context.
            pytest.param(("call", "oid", "op", "ab", {}, False), id="arguments-a-string"),
            pytest.param(("call", "oid", "op", {"x": 1.0}, {}, False), id="arguments-a-dict"),
            pytest.param(("call", "oid", "op", ["ab"], {}, False), id="arguments-a-list"),
            pytest.param(("call", "oid", "op", (), [("k", "v")], False), id="context-pairs"),
            pytest.param(("system", 3), id="system-error-not-a-mapping"),
            pytest.param(("system", ["ab", "c"]), id="system-error-bad-pairs"),
            pytest.param(("throw", "not an exception"), id="throw-without-exception"),
            pytest.param(("call", "oid"), id="short-call"),
            pytest.param(("nope", 1), id="unknown-kind"),
            pytest.param([], id="not-a-tuple"),
        ],
    )
    def test_jrmp_decode_of_wrong_typed_frames(self, payload):
        with pytest.raises(MarshalError):
            jrmp.decode(jser_dumps(payload))
